// Building blocks of the end-to-end ORB benchmark that its self-test
// checks on their own: the percentile rule, the seeded inputs, the Poisson
// arrival schedule, and the ComChannel decorator the traced pass times
// frames with.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/clock.h"
#include "transport/com_channel.h"

namespace cool::perfbench {

// --- percentiles --------------------------------------------------------

// A percentile is reported only when at least this many samples lie beyond
// it, so p99 needs 1000 samples and p50 needs 20.
inline constexpr std::size_t kMinSamplesBeyond = 10;

struct Percentile {
  double value = 0;
  std::size_t samples = 0;  // n
  std::size_t beyond = 0;   // samples strictly above the reported rank
};

// Nearest-rank percentile of `sorted` (ascending): rank = ceil(p/100 * n).
// nullopt when fewer than kMinSamplesBeyond samples lie beyond the rank.
inline std::optional<Percentile> PercentileOf(std::span<const double> sorted,
                                              double p) {
  const std::size_t n = sorted.size();
  if (n == 0) return std::nullopt;
  auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  const std::size_t beyond = n - rank;
  if (beyond < kMinSamplesBeyond) return std::nullopt;
  return Percentile{sorted[rank - 1], n, beyond};
}

// Quantile q (0 to 100) of `v`, interpolating linearly between the two
// nearest order statistics; 0 when `v` is empty.
inline double QuantileOf(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double Median(std::vector<double> v) {
  return QuantileOf(std::move(v), 50);
}

// One measured call: when it completed (us into the run) and its latency.
struct Sample {
  double at_us = 0;
  double us = 0;
};

// A run is cut into slices, and each rate and latency is a quantile over
// the values its slices give. Co-tenants of a shared host only ever add
// delay, and they come and go (on a 4-vCPU VM the hypervisor took 2-12% of
// each second while the benchmark ran), so a latency is reported as the
// tenth percentile of its slices' values and a rate as the ninetieth: the
// figure of the run's quietest tenth. A change that makes every call
// slower moves every slice, so it moves these as much as the median slice.
inline constexpr double kLatencySliceQuantile = 10;
inline constexpr double kRateSliceQuantile = 90;

// The percentile p of each slice of `samples`: the samples, in completion
// order, are cut into up to kMaxSlices consecutive slices of equal count,
// each big enough for p to be reportable. nullopt when not even one is.
inline constexpr std::size_t kMaxSlices = 100;

struct SlicedPercentiles {
  std::vector<double> per_slice;
  std::size_t samples = 0;  // n over all slices
  std::size_t beyond = 0;   // per slice (the smallest slice)
};

inline std::optional<SlicedPercentiles> SlicePercentiles(
    std::vector<Sample> samples, double p) {
  std::sort(samples.begin(), samples.end(),
            [](const Sample& a, const Sample& b) { return a.at_us < b.at_us; });
  const std::size_t n = samples.size();
  // Smallest slice that leaves kMinSamplesBeyond samples beyond p.
  const auto min_slice = static_cast<std::size_t>(std::ceil(
      static_cast<double>(kMinSamplesBeyond) / (1.0 - p / 100.0) - 1e-9));
  const std::size_t k = std::min(kMaxSlices, n / std::max<std::size_t>(
                                                     min_slice, 1));
  if (k == 0) return std::nullopt;
  SlicedPercentiles out{{}, n, n};
  for (std::size_t i = 0; i < k; ++i) {
    std::vector<double> us;
    for (std::size_t j = i * n / k; j < (i + 1) * n / k; ++j) {
      us.push_back(samples[j].us);
    }
    std::sort(us.begin(), us.end());
    const auto pct = PercentileOf(us, p);
    if (!pct) return std::nullopt;
    out.beyond = std::min(out.beyond, pct->beyond);
    out.per_slice.push_back(pct->value);
  }
  return out;
}

// Completions per second in each whole `slice_us` slice of [0, window_us)
// (at_us counts from the start of the window). A window shorter than one
// slice is one slice.
inline std::vector<double> SliceRates(const std::vector<Sample>& samples,
                                      double window_us, double slice_us) {
  const auto k = static_cast<std::size_t>(std::max(1.0, window_us / slice_us));
  const double len_us = std::min(slice_us, window_us);
  std::vector<double> rates(k, 0.0);
  for (const Sample& x : samples) {
    if (x.at_us < 0) continue;
    const auto i = static_cast<std::size_t>(x.at_us / len_us);
    if (i < k) rates[i] += 1e6 / len_us;
  }
  return rates;
}

// --- seeded inputs --------------------------------------------------------

// SplitMix64: the benchmark's only randomness, so one seed fixes every
// payload byte, arrival time, class choice and put/get decision on every
// platform (std:: distributions are implementation-defined).
class SeededRng {
 public:
  explicit SeededRng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  // Uniform in [0, 1).
  double Uniform() {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }
  std::uint64_t Below(std::uint64_t bound) { return Next() % bound; }

 private:
  std::uint64_t state_;
};

// Seeded string of `len` printable characters (CDR strings exclude NUL).
inline std::string SeededString(SeededRng& rng, std::size_t len) {
  static constexpr char kAlphabet[] =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_";
  std::string s(len, ' ');
  for (char& c : s) c = kAlphabet[rng.Below(sizeof(kAlphabet) - 1)];
  return s;
}

inline std::vector<std::uint8_t> SeededBytes(SeededRng& rng, std::size_t len) {
  std::vector<std::uint8_t> out(len);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.Next());
  return out;
}

// --- open-loop arrivals ----------------------------------------------------

struct Arrival {
  std::int64_t due_ns = 0;  // offset from the start of the schedule
  std::uint32_t cls = 0;    // index into the rates passed to PoissonSchedule
};

// Merged Poisson arrivals of independent classes over [0, horizon): class i
// arrives at rates_per_s[i]. Inter-arrival gaps are drawn per class from
// `seed`, so the same seed gives the same schedule.
inline std::vector<Arrival> PoissonSchedule(
    std::uint64_t seed, std::span<const double> rates_per_s,
    Duration horizon) {
  const auto horizon_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(horizon).count();
  std::vector<Arrival> out;
  for (std::uint32_t c = 0; c < rates_per_s.size(); ++c) {
    SeededRng rng(seed * 0x100000001b3ULL + c + 1);
    double t_ns = 0;
    for (;;) {
      t_ns += -std::log1p(-rng.Uniform()) / rates_per_s[c] * 1e9;
      if (t_ns >= static_cast<double>(horizon_ns)) break;
      out.push_back(Arrival{static_cast<std::int64_t>(t_ns), c});
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const Arrival& a, const Arrival& b) {
                     return a.due_ns < b.due_ns;
                   });
  return out;
}

// --- frame timing decorator -------------------------------------------------

// Receives the timestamps TimingChannel takes around every forwarded frame.
class FrameObserver {
 public:
  virtual ~FrameObserver() = default;
  // A send span: the whole message is the concatenation of `parts`.
  virtual void OnSent(TimePoint begin, TimePoint end,
                      std::span<const std::span<const std::uint8_t>> parts) = 0;
  // A receive returned `frame` at `at`.
  virtual void OnReceived(TimePoint at, std::span<const std::uint8_t> frame) = 0;
};

// ComChannel decorator: forwards every virtual to `inner` unchanged and
// reports each send span and each received frame to `observer`. The traced
// pass puts it between ORB::OpenChannel and giop::GiopClient, the place the
// ORB's own Stub binding puts nothing.
class TimingChannel final : public transport::ComChannel {
 public:
  // `inner` and `observer` must outlive the decorator.
  TimingChannel(transport::ComChannel* inner, FrameObserver* observer)
      : inner_(inner), observer_(observer) {}
  ~TimingChannel() override { DrainAsync(); }

  std::string_view protocol() const override { return inner_->protocol(); }

  Status SendMessage(std::span<const std::uint8_t> message) override {
    const TimePoint begin = Now();
    Status s = inner_->SendMessage(message);
    const TimePoint end = Now();
    const std::span<const std::uint8_t> parts[] = {message};
    if (s.ok()) observer_->OnSent(begin, end, parts);
    return s;
  }

  Status SendMessageV(
      std::span<const std::span<const std::uint8_t>> parts) override {
    const TimePoint begin = Now();
    Status s = inner_->SendMessageV(parts);
    const TimePoint end = Now();
    if (s.ok()) observer_->OnSent(begin, end, parts);
    return s;
  }

  Result<ByteBuffer> ReceiveMessage(Duration timeout) override {
    Result<ByteBuffer> r = inner_->ReceiveMessage(timeout);
    if (r.ok()) observer_->OnReceived(Now(), r->view());
    return r;
  }

  Result<std::optional<ByteBuffer>> TryReceiveMessage() override {
    Result<std::optional<ByteBuffer>> r = inner_->TryReceiveMessage();
    if (r.ok() && r->has_value()) observer_->OnReceived(Now(), (*r)->view());
    return r;
  }

  bool RegisterRx(const sim::WaitSet& set, std::uint64_t token) override {
    return inner_->RegisterRx(set, token);
  }

  void Close() override { inner_->Close(); }

  Status SetQoSParameter(const qos::QoSSpec& spec) override {
    return inner_->SetQoSParameter(spec);
  }
  qos::Capability TransportCapability() const override {
    return inner_->TransportCapability();
  }
  qos::QoSSpec CurrentQoS() const override { return inner_->CurrentQoS(); }

 private:
  transport::ComChannel* inner_;
  FrameObserver* observer_;
};

// The last four octets of a gathered message, in native order: where the
// traced pass puts each call's trace id (arguments and results both end
// the GIOP message). nullopt when the message is shorter.
inline std::optional<std::uint32_t> TrailingU32(
    std::span<const std::span<const std::uint8_t>> parts) {
  std::uint8_t tail[4];
  std::size_t need = 4;
  for (auto it = parts.rbegin(); it != parts.rend() && need > 0; ++it) {
    const std::size_t take = std::min(need, it->size());
    std::memcpy(tail + need - take, it->data() + it->size() - take, take);
    need -= take;
  }
  if (need > 0) return std::nullopt;
  std::uint32_t v = 0;
  std::memcpy(&v, tail, sizeof v);
  return v;
}

}  // namespace cool::perfbench
