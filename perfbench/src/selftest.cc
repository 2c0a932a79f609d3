// Self-test of the benchmark's own code (perfbench/src/bench_core.h): the
// percentile and sample-count rule, the sliced tail and rate estimators,
// seeded inputs and Poisson schedules, and the timing decorator's
// forwarding of every ComChannel virtual. perfbench/run.py runs it before
// every benchmark run; it prints one line per check and exits non-zero on
// any failure.
#include <cstdio>
#include <map>
#include <numeric>
#include <string>

#include "bench_core.h"

namespace cool::perfbench {
namespace {

int g_failures = 0;

void Check(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

std::vector<double> OneTo(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

void TestPercentileRule() {
  const auto v1000 = OneTo(1000);
  const auto p99 = PercentileOf(v1000, 99);
  Check(p99 && p99->value == 990 && p99->beyond == 10 && p99->samples == 1000,
        "p99 of 1..1000 is 990 with 10 samples beyond");
  Check(!PercentileOf(OneTo(999), 99),
        "p99 of 999 samples is withheld (9 beyond)");
  const auto p50 = PercentileOf(OneTo(20), 50);
  Check(p50 && p50->value == 10 && p50->beyond == 10,
        "p50 of 1..20 is 10 with 10 beyond");
  Check(!PercentileOf(OneTo(19), 50), "p50 of 19 samples is withheld");
  Check(!PercentileOf(std::vector<double>{}, 50), "no samples, no p50");
}

void TestSlicedEstimators() {
  Check(QuantileOf({4, 1, 3, 2}, 50) == 2.5 && Median({3, 1, 2}) == 2 &&
            QuantileOf({1, 2, 3, 4, 5}, 25) == 2 &&
            QuantileOf({1, 2, 3, 4, 5}, 75) == 4 && QuantileOf({}, 25) == 0,
        "quantiles interpolate between order statistics");

  // 10 slices of 1000 in completion order; two slices hold stalls.
  std::vector<Sample> samples;
  for (int i = 0; i < 10'000; ++i) {
    const bool stall = i >= 3000 && i < 5000 && i % 50 == 0;
    samples.push_back({static_cast<double>(i) * 100,
                       stall ? 1e5 : static_cast<double>(i % 1000 + 1)});
  }
  const auto sliced = SlicePercentiles(samples, 99);
  Check(sliced && sliced->per_slice.size() == 10 && sliced->beyond == 10 &&
            sliced->samples == 10'000 &&
            QuantileOf(sliced->per_slice, kLatencySliceQuantile) == 990,
        "sliced p99 ignores stalls confined to a fifth of the slices");
  Check(sliced && QuantileOf(sliced->per_slice, 90) == 1e5,
        "the stalled slices keep their own p99");
  samples.resize(999);
  Check(!SlicePercentiles(samples, 99), "sliced p99 of 999 samples is withheld");

  // 1000 completions per second over 5 s, but only 500 in seconds 2 and 3.
  std::vector<Sample> rate;
  for (int i = 0; i < 5000; ++i) {
    const bool slow = i >= 2000 && i < 4000 && i % 2 == 1;
    if (!slow) rate.push_back({i * 1000.0, 1});
  }
  const auto rates = SliceRates(rate, 5e6, 1e6);
  Check(rates == std::vector<double>{1000, 1000, 500, 500, 1000} &&
            QuantileOf(rates, kRateSliceQuantile) == 1000,
        "sliced rate ignores slow seconds in a minority of slices");
  Check(SliceRates(rate, 0.5e6, 1e6) == std::vector<double>{1000},
        "a window shorter than a slice is one slice");
}

void TestSeededInputs() {
  SeededRng a(42), b(42), c(43);
  Check(SeededString(a, 16) == SeededString(b, 16),
        "same seed, same strings");
  Check(SeededBytes(a, 64) == SeededBytes(b, 64), "same seed, same bytes");
  Check(SeededString(a, 16) != SeededString(c, 16),
        "another seed, other strings");

  const double rates[] = {8000, 500};
  const auto s1 = PoissonSchedule(7, rates, seconds(2));
  const auto s2 = PoissonSchedule(7, rates, seconds(2));
  const auto s3 = PoissonSchedule(8, rates, seconds(2));
  bool same = s1.size() == s2.size();
  for (std::size_t i = 0; same && i < s1.size(); ++i) {
    same = s1[i].due_ns == s2[i].due_ns && s1[i].cls == s2[i].cls;
  }
  Check(same, "same seed, identical Poisson schedule");
  bool differs = s1.size() != s3.size();
  for (std::size_t i = 0; !differs && i < s1.size(); ++i) {
    differs = s1[i].due_ns != s3[i].due_ns;
  }
  Check(differs, "another seed, another schedule");
  std::size_t per_class[2] = {0, 0};
  bool sorted = true;
  for (std::size_t i = 0; i < s1.size(); ++i) {
    ++per_class[s1[i].cls];
    if (i > 0 && s1[i].due_ns < s1[i - 1].due_ns) sorted = false;
    if (s1[i].due_ns < 0 || s1[i].due_ns >= 2'000'000'000) sorted = false;
  }
  Check(sorted, "schedule is in due order inside the horizon");
  // 16000 +- 4 sigma (sigma ~ 126) and 1000 +- 4 sigma (~32).
  Check(per_class[0] > 15'500 && per_class[0] < 16'500 &&
            per_class[1] > 870 && per_class[1] < 1130,
        "each class arrives at its rate");
}

// Counts every virtual the decorator may forward.
class FakeChannel final : public transport::ComChannel {
 public:
  std::map<std::string, int> calls;

  std::string_view protocol() const override {
    ++const_cast<FakeChannel*>(this)->calls["protocol"];
    return "fake";
  }
  Status SendMessage(std::span<const std::uint8_t>) override {
    ++calls["SendMessage"];
    return Status::Ok();
  }
  Status SendMessageV(
      std::span<const std::span<const std::uint8_t>>) override {
    ++calls["SendMessageV"];
    return Status::Ok();
  }
  Result<ByteBuffer> ReceiveMessage(Duration) override {
    ++calls["ReceiveMessage"];
    return ByteBuffer(std::vector<std::uint8_t>{1, 2, 3, 4});
  }
  Result<std::optional<ByteBuffer>> TryReceiveMessage() override {
    ++calls["TryReceiveMessage"];
    return std::optional<ByteBuffer>(
        ByteBuffer(std::vector<std::uint8_t>{5, 6, 7, 8}));
  }
  bool RegisterRx(const sim::WaitSet&, std::uint64_t token) override {
    ++calls["RegisterRx"];
    return token == 77;
  }
  void Close() override { ++calls["Close"]; }
  Status SetQoSParameter(const qos::QoSSpec&) override {
    ++calls["SetQoSParameter"];
    return UnsupportedError("fake refuses");
  }
  qos::Capability TransportCapability() const override {
    ++const_cast<FakeChannel*>(this)->calls["TransportCapability"];
    qos::Capability cap;
    cap.SetBest(qos::ParamType::kPriority, 42);
    return cap;
  }
  qos::QoSSpec CurrentQoS() const override {
    ++const_cast<FakeChannel*>(this)->calls["CurrentQoS"];
    return qos::QoSSpec::Trusted({qos::RequirePriority(9)});
  }
};

class CountingObserver final : public FrameObserver {
 public:
  int sent = 0;
  int received = 0;
  void OnSent(TimePoint begin, TimePoint end,
              std::span<const std::span<const std::uint8_t>>) override {
    if (end >= begin) ++sent;
  }
  void OnReceived(TimePoint, std::span<const std::uint8_t>) override {
    ++received;
  }
};

void TestTimingChannelForwardsEveryVirtual() {
  FakeChannel fake;
  CountingObserver obs;
  TimingChannel timed(&fake, &obs);
  transport::ComChannel& ch = timed;  // call through the base, as GIOP does

  const std::uint8_t bytes[] = {1, 2, 3};
  const std::span<const std::uint8_t> parts[] = {bytes, bytes};
  sim::WaitSet set;
  const bool ok =
      ch.protocol() == "fake" && ch.SendMessage(bytes).ok() &&
      ch.SendMessageV(parts).ok() && ch.ReceiveMessage(seconds(1)).ok() &&
      ch.TryReceiveMessage().ok() && ch.RegisterRx(set, 77) &&
      !ch.SetQoSParameter({}).ok() &&
      ch.TransportCapability().BestFor(qos::ParamType::kPriority) == 42 &&
      ch.CurrentQoS().size() == 1;
  ch.Close();
  Check(ok, "decorator passes every result through");
  for (const char* name :
       {"protocol", "SendMessage", "SendMessageV", "ReceiveMessage",
        "TryReceiveMessage", "RegisterRx", "Close", "SetQoSParameter",
        "TransportCapability", "CurrentQoS"}) {
    Check(fake.calls[name] == 1, std::string("decorator forwards ") + name);
  }
  Check(obs.sent == 2 && obs.received == 2,
        "decorator reports both sends and both receives");
}

void TestTrailingU32() {
  std::uint32_t id = 0xdeadbeef;
  std::uint8_t raw[4];
  std::memcpy(raw, &id, 4);
  const std::uint8_t head[] = {9, 9, raw[0]};
  const std::uint8_t tail[] = {raw[1], raw[2], raw[3]};
  const std::span<const std::uint8_t> split[] = {head, tail};
  Check(TrailingU32(split) == id, "trailing id read across parts");
  const std::span<const std::uint8_t> short_parts[] = {tail};
  Check(!TrailingU32(short_parts), "no trailing id in a 3-byte message");
}

}  // namespace
}  // namespace cool::perfbench

int main() {
  using namespace cool::perfbench;
  TestPercentileRule();
  TestSlicedEstimators();
  TestSeededInputs();
  TestTimingChannelForwardsEveryVirtual();
  TestTrailingU32();
  std::printf("%s: %d failure(s)\n", g_failures == 0 ? "PASS" : "FAIL",
              g_failures);
  return g_failures == 0 ? 0 : 1;
}
