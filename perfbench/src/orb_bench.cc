// End-to-end ORB benchmark: one binary, four workloads, driven through
// the public orb::ORB / orb::Stub API over a zero-latency, unpaced
// sim::Network, with every reply checked.
//
//   orb_bench --workload rpc_small|qos_closed|dacapo_bulk|qos_mixed --seed N
//             --seconds S --trace 0|1
//
// --trace 0 measures the end-to-end metrics over three sub-runs on fresh
// ORBs (see RunEndToEnd). --trace 1 measures the per-layer metrics: an
// untraced half-run (for trace.overhead_pct and the ORB's own counters), a
// traced half-run whose client bindings are rebuilt from public parts with
// a timing ComChannel decorator, and the calibration probes.
// perfbench/NOTES.md explains every workload and metric. The last stdout
// line is "RESULT {json}"; perfbench/run.py turns it into the benchmark's
// result line.
#include <malloc.h>
#include <sys/prctl.h>
#include <sys/resource.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "alloc_hook.h"
#include "bench_core.h"
#include "common/blocking_queue.h"
#include "common/buffer_pool.h"
#include "orb/stub.h"
#include "qos/classify.h"

namespace cool::perfbench {
namespace {

// ---- fixed configuration (recorded in BENCHMARK.json and NOTES.md) ------

// Both ORBs run one reactor worker and two dispatch workers: the defaults
// (one of each per core, per ORB) oversubscribe a small host and make the
// run-to-run spread several times wider.
constexpr unsigned kReactorThreads = 1;
constexpr std::size_t kGiopWorkers = 2;
constexpr Duration kWarmup = milliseconds(500);
constexpr Duration kCallTimeout = seconds(5);
constexpr int kSetupsPerSubRun = 33;
constexpr int kSubRuns = 3;
constexpr std::size_t kEchoBytes = 16;
constexpr std::size_t kBlobBytes = 16 * 1024;
constexpr std::uint32_t kBlobKeys = 8;
constexpr std::size_t kBlobVariants = 8;
constexpr std::size_t kStringPool = 256;
constexpr Duration kQosMixedSpin = microseconds(40);
constexpr double kQosMixedLowRate = 8000;   // best-effort TCP calls / s
constexpr double kQosMixedHighRate = 1000;  // QoS-bearing Da CaPo calls / s
// The open-loop run is invalid when the generator's median lateness
// exceeds this: it no longer keeps its schedule. (A stall that delays some
// arrivals shows in gen.late_p99_us and in the latencies, which run from
// each call's due time.)
constexpr double kMaxLateP50Us = 200;
constexpr double kRateSliceUs = 0.25e6;
constexpr std::size_t kTraceCapacity = 1'000'000;

const std::string kOpEcho = "echo";
const std::string kOpPut = "put";
const std::string kOpGet = "get";

sim::LinkProperties ZeroLatencyLink() {
  sim::LinkProperties link;
  link.bandwidth_bps = 0;  // unpaced
  link.latency = Duration::zero();
  return link;
}

// What Da CaPo's configuration manager is told about the link. It must be
// finite: bandwidth_bps = 0 makes EstimateLatencyMicros divide by zero and
// every latency-bounded QoS request is refused (see NOTES.md).
dacapo::NetworkEstimate Estimate() {
  dacapo::NetworkEstimate est;
  est.bandwidth_bps = 10'000'000'000;
  est.rtt_us = 10;
  return est;
}

orb::ORB::Options OrbOptions() {
  orb::ORB::Options o;
  o.estimate = Estimate();
  o.reactor_threads = kReactorThreads;
  o.giop_worker_threads = kGiopWorkers;
  return o;
}

std::int64_t Ns(TimePoint t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

double UsBetween(TimePoint a, TimePoint b) { return ToMicros(b - a); }

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

// A "Key: value" line of /proc/self/status (kB for VmRSS), or -1.
double ProcStatus(const std::string& key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key + ":", 0) == 0) {
      return std::strtod(line.c_str() + key.size() + 1, nullptr);
    }
  }
  return -1;
}

// Ticks of all CPUs and of their steal time (the hypervisor running
// another guest), from the first line of /proc/stat; zeros when unreadable.
struct HostTicks {
  double total = 0;
  double steal = 0;
};

HostTicks ReadHostTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  HostTicks t;
  double v = 0;
  in >> cpu;
  for (int i = 0; i < 8 && in >> v; ++i) {
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

// The hypervisor's share of the host's CPU time between two readings, in %.
double StealPct(const HostTicks& a, const HostTicks& b) {
  const double total = b.total - a.total;
  return total > 0 ? (b.steal - a.steal) / total * 100 : 0.0;
}

// ---- trace records ----------------------------------------------------------

// Timestamps (steady-clock ns) and costs of one traced call. Each field has
// one writer thread; records are read only after every writer has joined.
struct CallRecord {
  std::int64_t call = 0;        // caller: GIOP invoke entry
  std::int64_t ret = 0;         // caller: GIOP invoke return
  std::int64_t send_begin = 0;  // decorator: request send span
  std::int64_t send_end = 0;
  std::int64_t srv_entry = 0;   // servant upcall span
  std::int64_t srv_exit = 0;
  std::int64_t rx = 0;          // decorator: reply receive return
  std::int64_t encode_ns = 0;   // caller-side args encoding
  std::int64_t decode_ns = 0;   // caller-side reply decoding
  std::int64_t servant_codec_ns = 0;
};

bool IsGiop(std::span<const std::uint8_t> head, giop::MsgType type) {
  return head.size() >= 8 && std::memcmp(head.data(), "GIOP", 4) == 0 &&
         head[7] == static_cast<std::uint8_t>(type);
}

// Owns the call records of a traced run. Every traced call carries its
// record index as a trailing ulong in both its arguments and its results,
// so the decorator and the servant can stamp the right record without
// parsing GIOP.
class Tracer final : public FrameObserver {
 public:
  Tracer() : records_(kTraceCapacity) {}

  // nullopt once the record table is full.
  std::optional<std::uint32_t> NewId() {
    const std::uint32_t id = next_.fetch_add(1, std::memory_order_relaxed);
    if (id >= records_.size()) return std::nullopt;
    return id;
  }
  CallRecord& at(std::uint32_t id) { return records_[id]; }
  std::size_t used() const {
    return std::min<std::size_t>(next_.load(), records_.size());
  }

  void OnSent(TimePoint begin, TimePoint end,
              std::span<const std::span<const std::uint8_t>> parts) override {
    if (parts.empty() || !IsGiop(parts[0], giop::MsgType::kRequest)) return;
    const auto id = TrailingU32(parts);
    if (!id || *id >= records_.size()) return;
    CallRecord& r = records_[*id];
    r.send_begin = Ns(begin);
    r.send_end = Ns(end);
  }

  void OnReceived(TimePoint at, std::span<const std::uint8_t> frame) override {
    if (!IsGiop(frame, giop::MsgType::kReply)) return;
    const std::span<const std::uint8_t> parts[] = {frame};
    const auto id = TrailingU32(parts);
    if (!id || *id >= records_.size()) return;
    records_[*id].rx = Ns(at);
  }

 private:
  std::vector<CallRecord> records_;
  std::atomic<std::uint32_t> next_{0};
};

// ---- the servant ------------------------------------------------------------

// echo(string) -> string, after spinning `spin`;
// put(ulong key, octet seq) -> ulong stored length;
// get(ulong key) -> octet seq last put under key.
// With a tracer, arguments and results end with the call's trace id.
class BenchServant final : public orb::Servant {
 public:
  BenchServant(Duration spin, Tracer* tracer) : spin_(spin), tracer_(tracer) {}

  std::string_view repository_id() const override {
    return "IDL:perfbench/Bench:1.0";
  }

  orb::DispatchOutcome Dispatch(std::string_view op, cdr::Decoder& args,
                                cdr::Encoder& out) override {
    Status s = Serve(op, args, out);
    return s.ok() ? orb::DispatchOutcome::Ok()
                  : orb::DispatchOutcome::Fail(std::move(s));
  }

 private:
  Status Serve(std::string_view op, cdr::Decoder& args, cdr::Encoder& out) {
    const bool traced = tracer_ != nullptr;
    const TimePoint entry = traced ? Now() : TimePoint{};
    // Codec time: from `mark` to each pause(), traced runs only.
    TimePoint mark = entry;
    Duration codec{};
    auto pause = [&] {
      if (!traced) return TimePoint{};
      const TimePoint now = Now();
      codec += now - mark;
      return now;
    };
    auto resume = [&] {
      if (traced) mark = Now();
    };
    std::optional<std::uint32_t> trace_id;
    auto read_trace_id = [&]() -> Status {
      if (!traced) return Status::Ok();
      COOL_ASSIGN_OR_RETURN(trace_id, args.GetULong());
      return Status::Ok();
    };

    if (op == kOpEcho) {
      COOL_ASSIGN_OR_RETURN(std::string_view s, args.GetStringView());
      COOL_RETURN_IF_ERROR(read_trace_id());
      pause();
      if (spin_ > Duration::zero()) {
        for (const TimePoint until = Now() + spin_; Now() < until;) {
        }
      }
      resume();
      out.PutString(s);
    } else if (op == kOpPut) {
      COOL_ASSIGN_OR_RETURN(corba::ULong key, args.GetULong());
      COOL_ASSIGN_OR_RETURN(auto data, args.GetOctetSeqView());
      if (key >= kBlobKeys) return InvalidArgumentError("bad key");
      COOL_RETURN_IF_ERROR(read_trace_id());
      pause();
      {
        MutexLock lock(mu_);
        blobs_[key].assign(data.begin(), data.end());
      }
      resume();
      out.PutULong(static_cast<corba::ULong>(data.size()));
    } else if (op == kOpGet) {
      COOL_ASSIGN_OR_RETURN(corba::ULong key, args.GetULong());
      if (key >= kBlobKeys) return InvalidArgumentError("bad key");
      COOL_RETURN_IF_ERROR(read_trace_id());
      MutexLock lock(mu_);
      out.PutOctetSeq(blobs_[key]);
    } else {
      return UnsupportedError(std::string(op));
    }

    if (trace_id) {
      out.PutULong(*trace_id);
      const TimePoint exit = pause();
      if (*trace_id >= kTraceCapacity) return InvalidArgumentError("trace id");
      CallRecord& r = tracer_->at(*trace_id);
      r.srv_entry = Ns(entry);
      r.srv_exit = Ns(exit);
      r.servant_codec_ns =
          std::chrono::duration_cast<std::chrono::nanoseconds>(codec).count();
    }
    return Status::Ok();
  }

  const Duration spin_;
  Tracer* const tracer_;
  Mutex mu_;
  std::array<std::vector<std::uint8_t>, kBlobKeys> blobs_ COOL_GUARDED_BY(mu_);
};

// ---- client bindings ----------------------------------------------------------

struct Reply {
  ByteBuffer frame;
  std::size_t offset = 0;
  cdr::ByteOrder order = cdr::NativeOrder();

  cdr::Decoder MakeDecoder() const {
    return cdr::Decoder(frame.view().subspan(offset), order, offset);
  }
};

// One client binding as the workloads drive it: a public orb::Stub
// (untraced runs) or the same binding rebuilt from public parts with the
// timing decorator in it (traced runs).
class Binding {
 public:
  virtual ~Binding() = default;
  virtual cdr::Encoder MakeArgsEncoder() const = 0;
  virtual Result<Reply> Invoke(const std::string& op,
                               std::span<const corba::Octet> args) = 0;
  virtual Result<corba::ULong> InvokeDeferred(
      const std::string& op, std::span<const corba::Octet> args) = 0;
  virtual Result<Reply> PollReply(corba::ULong id, Duration timeout) = 0;
  // The Da CaPo channel under this binding, when it has one and exposes it.
  virtual transport::DacapoComChannel* dacapo() { return nullptr; }
};

class StubBinding final : public Binding {
 public:
  StubBinding(orb::ORB* orb, orb::ObjectRef ref) : stub_(orb, std::move(ref)) {}

  orb::Stub& stub() { return stub_; }

  cdr::Encoder MakeArgsEncoder() const override {
    return stub_.MakeArgsEncoder();
  }
  Result<Reply> Invoke(const std::string& op,
                       std::span<const corba::Octet> args) override {
    return FromStub(stub_.Invoke(op, args, kCallTimeout));
  }
  Result<corba::ULong> InvokeDeferred(
      const std::string& op, std::span<const corba::Octet> args) override {
    return stub_.InvokeDeferred(op, args);
  }
  Result<Reply> PollReply(corba::ULong id, Duration timeout) override {
    return FromStub(stub_.PollReply(id, timeout));
  }

 private:
  static Result<Reply> FromStub(Result<orb::Stub::ReplyData> r) {
    if (!r.ok()) return r.status();
    if (r->status != giop::ReplyStatus::kNoException) {
      return Status(InternalError("user exception reply"));
    }
    return Reply{std::move(r->payload), r->results_offset, r->order};
  }

  orb::Stub stub_;
};

// Stub::EnsureBoundLocked rebuilt from public calls, with a TimingChannel
// between the transport channel and the GIOP client.
class TracedBinding final : public Binding {
 public:
  static Result<std::unique_ptr<TracedBinding>> Open(
      orb::ORB* orb, const orb::ObjectRef& ref, const qos::QoSSpec& spec,
      FrameObserver* observer) {
    auto b = std::unique_ptr<TracedBinding>(new TracedBinding());
    COOL_ASSIGN_OR_RETURN(b->inner_, orb->OpenChannel(ref, spec));
    b->timed_ = std::make_unique<TimingChannel>(b->inner_.get(), observer);
    giop::GiopClient::Options opts;
    opts.use_qos_extension = orb->options().enable_qos_extension;
    opts.order = cdr::NativeOrder();
    opts.principal = orb->options().principal;
    b->client_ = std::make_unique<giop::GiopClient>(b->timed_.get(), opts);
    b->key_ = ref.object_key;
    b->qos_ = spec.parameters();
    return b;
  }

  ~TracedBinding() override {
    // As Stub::Unbind: announce the close, then close the channel.
    (void)client_->SendClose();
    inner_->Close();
    client_.reset();
  }

  cdr::Encoder MakeArgsEncoder() const override {
    return client_->MakeArgsEncoder();
  }
  Result<Reply> Invoke(const std::string& op,
                       std::span<const corba::Octet> args) override {
    return FromGiop(client_->Invoke(key_, op, args, qos_, kCallTimeout));
  }
  Result<corba::ULong> InvokeDeferred(
      const std::string& op, std::span<const corba::Octet> args) override {
    return client_->InvokeDeferred(key_, op, args, qos_);
  }
  Result<Reply> PollReply(corba::ULong id, Duration timeout) override {
    return FromGiop(client_->PollReply(id, timeout));
  }
  transport::DacapoComChannel* dacapo() override {
    return inner_->protocol() == "dacapo"
               ? static_cast<transport::DacapoComChannel*>(inner_.get())
               : nullptr;
  }

 private:
  TracedBinding() = default;

  static Result<Reply> FromGiop(Result<giop::GiopClient::Reply> r) {
    if (!r.ok()) return r.status();
    if (r->header.reply_status != giop::ReplyStatus::kNoException) {
      return Status(InternalError("non-normal reply status"));
    }
    const std::size_t offset = r->ResultsMessageOffset();
    const cdr::ByteOrder order = r->message.header.byte_order;
    return Reply{std::move(r->message.buffer), offset, order};
  }

  // Destroyed bottom-up: the client (joining its reader) before the
  // channels it reads.
  std::unique_ptr<transport::ComChannel> inner_;
  std::unique_ptr<TimingChannel> timed_;
  std::unique_ptr<giop::GiopClient> client_;
  corba::OctetSeq key_;
  std::vector<qos::QoSParameter> qos_;
};

// ---- workloads ------------------------------------------------------------

struct BindingPlan {
  orb::Protocol protocol = orb::Protocol::kTcp;
  qos::QoSSpec spec;
};

struct Workload {
  std::string name;
  std::vector<BindingPlan> bindings;  // bindings[0] is the primary one
  Duration spin{};
  std::size_t request_bytes = 0;  // payload a call carries (probe sizing)
};

std::optional<Workload> FindWorkload(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "rpc_small") {
    w.bindings = {{orb::Protocol::kTcp, {}}, {orb::Protocol::kTcp, {}}};
    w.request_bytes = kEchoBytes;
  } else if (name == "dacapo_bulk") {
    w.bindings = {{orb::Protocol::kDacapo,
                   qos::QoSSpec::Trusted({qos::RequireReliability(1),
                                          qos::RequireEncryption(true)})}};
    w.request_bytes = kBlobBytes;
  } else if (name == "qos_mixed" || name == "qos_closed") {
    // bindings[0]: best-effort (low), bindings[1]: QoS-bearing (high).
    w.bindings = {{orb::Protocol::kTcp, {}},
                  {orb::Protocol::kDacapo,
                   qos::QoSSpec::Trusted(
                       {qos::RequirePriority(230),
                        qos::RequireLatencyMicros(1000, 2000)})}};
    w.spin = kQosMixedSpin;
    w.request_bytes = kEchoBytes;
  } else {
    return std::nullopt;
  }
  return w;
}

// Two ORBs on one zero-latency network, the servant registered on TCP and
// Da CaPo, and the workload's client bindings, each proven by one good
// reply. Members are destroyed bindings first, network last.
struct Rig {
  std::unique_ptr<sim::Network> net;
  std::unique_ptr<orb::ORB> server;
  std::unique_ptr<orb::ORB> client;
  orb::ObjectRef tcp_ref;
  orb::ObjectRef dacapo_ref;
  std::vector<std::unique_ptr<Binding>> bindings;

  const orb::ObjectRef& RefFor(orb::Protocol p) const {
    return p == orb::Protocol::kTcp ? tcp_ref : dacapo_ref;
  }
};

// Encodes `fill`'s arguments plus, when traced, the trailing trace id.
template <typename Fill>
cdr::Encoder EncodeArgs(const Binding& b, std::optional<std::uint32_t> id,
                        const Fill& fill) {
  cdr::Encoder enc = b.MakeArgsEncoder();
  fill(enc);
  if (id) enc.PutULong(*id);
  return enc;
}

// Checks a traced reply's trailing id (untraced replies have none).
bool TraceTrailerOk(cdr::Decoder& dec, std::optional<std::uint32_t> id) {
  if (!id) return dec.AtEnd();
  auto got = dec.GetULong();
  return got.ok() && *got == *id && dec.AtEnd();
}

Status EchoOnce(Binding& b, Tracer* tracer, std::string_view msg) {
  std::optional<std::uint32_t> id;
  if (tracer != nullptr) {
    id = tracer->NewId();
    if (!id) return ResourceExhaustedError("trace table full");
  }
  cdr::Encoder enc =
      EncodeArgs(b, id, [&](cdr::Encoder& e) { e.PutString(msg); });
  COOL_ASSIGN_OR_RETURN(Reply reply, b.Invoke(kOpEcho, enc.buffer().view()));
  cdr::Decoder dec = reply.MakeDecoder();
  COOL_ASSIGN_OR_RETURN(std::string_view got, dec.GetStringView());
  if (got != msg || !TraceTrailerOk(dec, id)) {
    return InternalError("echo reply does not match the request");
  }
  return Status::Ok();
}

Result<std::unique_ptr<Rig>> BuildRig(const Workload& w, Tracer* tracer) {
  auto rig = std::make_unique<Rig>();
  rig->net = std::make_unique<sim::Network>(ZeroLatencyLink());
  rig->server =
      std::make_unique<orb::ORB>(rig->net.get(), "server", OrbOptions());
  rig->client =
      std::make_unique<orb::ORB>(rig->net.get(), "client", OrbOptions());
  auto servant = std::make_shared<BenchServant>(w.spin, tracer);
  COOL_ASSIGN_OR_RETURN(rig->tcp_ref,
                        rig->server->RegisterServant("bench_tcp", servant,
                                                     orb::Protocol::kTcp));
  COOL_ASSIGN_OR_RETURN(rig->dacapo_ref,
                        rig->server->RegisterServant("bench_dacapo", servant,
                                                     orb::Protocol::kDacapo));
  COOL_RETURN_IF_ERROR(rig->server->Start());
  for (const BindingPlan& plan : w.bindings) {
    const orb::ObjectRef& ref = rig->RefFor(plan.protocol);
    if (tracer != nullptr) {
      COOL_ASSIGN_OR_RETURN(
          auto traced,
          TracedBinding::Open(rig->client.get(), ref, plan.spec, tracer));
      rig->bindings.push_back(std::move(traced));
    } else {
      auto stub = std::make_unique<StubBinding>(rig->client.get(), ref);
      if (!plan.spec.empty()) {
        COOL_RETURN_IF_ERROR(stub->stub().SetQoSParameter(plan.spec));
      }
      rig->bindings.push_back(std::move(stub));
    }
  }
  for (auto& b : rig->bindings) {
    COOL_RETURN_IF_ERROR(EchoOnce(*b, tracer, "setup-probe-0123"));
  }
  return rig;
}

// ---- measurement ------------------------------------------------------------

// Per-thread tallies, merged after the threads join.
struct Tally {
  std::vector<Sample> lat;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t completed = 0;  // measured calls whose reply checked out
  std::uint64_t payload_bytes = 0;
  std::string first_error;

  void Fail(const std::string& why) {
    ++failed;
    if (first_error.empty()) first_error = why;
  }
  void Merge(const Tally& t) {
    lat.insert(lat.end(), t.lat.begin(), t.lat.end());
    attempted += t.attempted;
    failed += t.failed;
    completed += t.completed;
    payload_bytes += t.payload_bytes;
    if (first_error.empty()) first_error = t.first_error;
  }
};

struct RunStats {
  Tally all;
  std::vector<Sample> high;  // the workload's most-favoured class
  std::vector<Sample> low;   // its least-favoured class
  std::vector<double> late_us;  // open loop: send time - due time
  double elapsed_s = 0;
  double cpu_s = 0;
  double rss_mb = 0;  // at the start of the window
  double threads = 0;
  std::uint64_t allocs = 0;
  std::uint64_t pool_hits = 0;
  std::uint64_t pool_misses = 0;
  // Da CaPo A-module traffic of the bindings that have a Da CaPo channel
  // exposed (traced runs), and those bindings' calls and payload.
  std::uint64_t dacapo_packets = 0;
  std::uint64_t dacapo_bytes = 0;
  std::uint64_t dacapo_calls = 0;
  std::uint64_t dacapo_payload = 0;
};

struct Window {
  TimePoint start;  // measuring starts (after the warm-up)
  TimePoint end;
};

// Counters read at both edges of the measured window.
struct Edge {
  TimePoint at;
  double cpu_s = 0;
  std::uint64_t allocs = 0;
  BufferPool::Stats pool;
  std::vector<dacapo::AppAModule::Stats> dacapo;
};

Edge ReadEdge(Rig& rig) {
  Edge e;
  e.at = Now();
  e.cpu_s = CpuSeconds();
  e.allocs = bench::AllocCount();
  e.pool = BufferPool::Default().stats();
  for (auto& b : rig.bindings) {
    transport::DacapoComChannel* ch = b->dacapo();
    e.dacapo.push_back(ch != nullptr ? ch->session().stats()
                                     : dacapo::AppAModule::Stats{});
  }
  return e;
}

Window WindowFrom(TimePoint origin, Duration measure) {
  return Window{origin + kWarmup, origin + kWarmup + measure};
}

// Runs `bodies` (one thread each) through `win`, and reads the process
// counters at the edges of the measured window. tallies[i] belongs to
// bodies[i], and for i < bindings.size() counts the calls of bindings[i].
using Body = std::function<void(const Window&, Tally&)>;
RunStats Drive(Rig& rig, const std::vector<Body>& bodies,
               std::vector<Tally>& tallies, const Window& win) {
  RunStats out;
  Edge begin;
  {
    std::vector<Thread> threads;
    for (std::size_t i = 0; i < bodies.size(); ++i) {
      threads.emplace_back([&, i] { bodies[i](win, tallies[i]); });
    }
    std::this_thread::sleep_until(win.start);
    begin = ReadEdge(rig);
    out.rss_mb = ProcStatus("VmRSS") / 1024.0;
    out.threads = ProcStatus("Threads");
  }  // joins
  const Edge end = ReadEdge(rig);
  out.elapsed_s = ToSeconds(end.at - begin.at);
  out.cpu_s = end.cpu_s - begin.cpu_s;
  out.allocs = end.allocs - begin.allocs;
  out.pool_hits = end.pool.hits - begin.pool.hits;
  out.pool_misses = end.pool.misses - begin.pool.misses;
  for (std::size_t i = 0; i < rig.bindings.size(); ++i) {
    if (rig.bindings[i]->dacapo() == nullptr) continue;
    const auto& a = begin.dacapo[i];
    const auto& b = end.dacapo[i];
    out.dacapo_packets +=
        (b.packets_tx - a.packets_tx) + (b.packets_rx - a.packets_rx);
    out.dacapo_bytes += (b.bytes_tx - a.bytes_tx) + (b.bytes_rx - a.bytes_rx);
    if (i < tallies.size()) {
      out.dacapo_calls += tallies[i].completed;
      out.dacapo_payload += tallies[i].payload_bytes;
    }
  }
  for (const Tally& t : tallies) out.all.Merge(t);
  return out;
}

// Trace bookkeeping of one call; inert when untraced.
struct TracedCall {
  Tracer* tracer = nullptr;
  std::optional<std::uint32_t> id;

  // False when tracing and the record table is full.
  bool Begin(Tracer* t) {
    tracer = t;
    if (t == nullptr) return true;
    id = t->NewId();
    return id.has_value();
  }
  // start: before encoding; call/ret: around the GIOP invocation;
  // done: after decoding.
  void Record(TimePoint start, TimePoint call, TimePoint ret,
              TimePoint done) const {
    if (!id) return;
    CallRecord& r = tracer->at(*id);
    r.encode_ns = Ns(call) - Ns(start);
    r.call = Ns(call);
    r.ret = Ns(ret);
    r.decode_ns = Ns(done) - Ns(ret);
  }
};

std::vector<std::string> StringPool(SeededRng& rng) {
  std::vector<std::string> pool;
  for (std::size_t k = 0; k < kStringPool; ++k) {
    pool.push_back(SeededString(rng, kEchoBytes));
  }
  return pool;
}

// rpc_small and qos_closed: one closed-loop caller per binding, synchronous
// 16-byte echoes. With `classes`, bindings[0] is the low class and
// bindings[1] the high one; otherwise every call is of both.
RunStats RunClosedEcho(Rig& rig, Tracer* tracer, std::uint64_t seed,
                       Duration measure, bool classes) {
  std::vector<Body> bodies;
  for (std::size_t i = 0; i < rig.bindings.size(); ++i) {
    bodies.push_back([&, i](const Window& win, Tally& t) {
      Binding& b = *rig.bindings[i];
      SeededRng rng(seed * 31 + i + 1);
      const std::vector<std::string> pool = StringPool(rng);
      for (;;) {
        const TimePoint start = Now();
        if (start >= win.end) break;
        const std::string& msg = pool[rng.Below(kStringPool)];
        TracedCall tc;
        if (!tc.Begin(tracer)) break;  // trace table full: stop early
        ++t.attempted;
        cdr::Encoder enc =
            EncodeArgs(b, tc.id, [&](cdr::Encoder& e) { e.PutString(msg); });
        const TimePoint call = Now();
        auto reply = b.Invoke(kOpEcho, enc.buffer().view());
        const TimePoint ret = Now();
        if (!reply.ok()) {
          t.Fail("echo: " + reply.status().ToString());
          continue;
        }
        cdr::Decoder dec = reply->MakeDecoder();
        auto got = dec.GetStringView();
        const TimePoint done = Now();
        if (!got.ok() || *got != msg || !TraceTrailerOk(dec, tc.id)) {
          t.Fail("echo reply does not match the request");
          continue;
        }
        if (start < win.start) continue;
        ++t.completed;
        t.payload_bytes += 2 * kEchoBytes;
        t.lat.push_back({UsBetween(win.start, done), UsBetween(start, done)});
        tc.Record(start, call, ret, done);
      }
    });
  }
  std::vector<Tally> tallies(bodies.size());
  RunStats out =
      Drive(rig, bodies, tallies, WindowFrom(Now(), measure));
  if (classes) {
    out.low = tallies[0].lat;
    out.high = tallies[1].lat;
  } else {
    out.high = out.low = out.all.lat;
  }
  return out;
}

// dacapo_bulk: one closed-loop caller on the Da CaPo binding, a seeded mix
// of put(16 KiB) and get(16 KiB back) whose bytes are checked end to end.
RunStats RunDacapoBulk(Rig& rig, Tracer* tracer, std::uint64_t seed,
                       Duration measure) {
  Body body = [&](const Window& win, Tally& t) {
    Binding& b = *rig.bindings[0];
    SeededRng rng(seed * 31 + 7);
    std::vector<std::vector<std::uint8_t>> blobs;
    for (std::size_t k = 0; k < kBlobVariants; ++k) {
      blobs.push_back(SeededBytes(rng, kBlobBytes));
    }
    // expected[key]: which blob the servant holds under key, or -1.
    std::array<int, kBlobKeys> expected;
    expected.fill(-1);
    std::vector<std::uint32_t> stored;
    for (;;) {
      const TimePoint start = Now();
      if (start >= win.end) break;
      const bool put = stored.empty() || rng.Below(2) == 0;
      const auto key = static_cast<std::uint32_t>(
          put ? rng.Below(kBlobKeys) : stored[rng.Below(stored.size())]);
      const std::size_t blob = put ? rng.Below(kBlobVariants) : 0;
      TracedCall tc;
      if (!tc.Begin(tracer)) break;
      ++t.attempted;
      cdr::Encoder enc = EncodeArgs(b, tc.id, [&](cdr::Encoder& e) {
        e.PutULong(key);
        if (put) e.PutOctetSeq(blobs[blob]);
      });
      const TimePoint call = Now();
      auto reply = b.Invoke(put ? kOpPut : kOpGet, enc.buffer().view());
      const TimePoint ret = Now();
      if (!reply.ok()) {
        t.Fail(std::string(put ? "put: " : "get: ") +
               reply.status().ToString());
        continue;
      }
      cdr::Decoder dec = reply->MakeDecoder();
      bool ok = false;
      TimePoint done;
      if (put) {
        auto len = dec.GetULong();
        done = Now();
        ok = len.ok() && *len == kBlobBytes;
        if (ok && expected[key] < 0) stored.push_back(key);
        if (ok) expected[key] = static_cast<int>(blob);
      } else {
        auto data = dec.GetOctetSeqView();
        done = Now();
        const auto& want = blobs[static_cast<std::size_t>(expected[key])];
        ok = data.ok() && data->size() == want.size() &&
             std::memcmp(data->data(), want.data(), want.size()) == 0;
      }
      if (!ok || !TraceTrailerOk(dec, tc.id)) {
        t.Fail(std::string(put ? "put" : "get") +
               " reply does not match the stored bytes");
        continue;
      }
      if (start < win.start) continue;
      ++t.completed;
      t.payload_bytes += kBlobBytes;
      t.lat.push_back({UsBetween(win.start, done), UsBetween(start, done)});
      tc.Record(start, call, ret, done);
    }
  };
  std::vector<Tally> tallies(1);
  RunStats out = Drive(rig, {body}, tallies, WindowFrom(Now(), measure));
  out.high = out.low = out.all.lat;
  return out;
}

// qos_mixed: open-loop Poisson arrivals of best-effort TCP calls
// (bindings[0], low) and QoS-bearing Da CaPo calls (bindings[1], high). One
// generator thread sends each call at its due time as a deferred request;
// one collector per binding polls the replies in send order. Latency runs
// from the due time, so a stalled generator or server shows in it.
RunStats RunQosMixed(Rig& rig, Tracer* tracer, std::uint64_t seed,
                     Duration measure) {
  constexpr std::size_t kLow = 0;
  constexpr std::size_t kHigh = 1;
  const double rates[] = {kQosMixedLowRate, kQosMixedHighRate};
  const std::vector<Arrival> schedule =
      PoissonSchedule(seed, rates, kWarmup + measure);
  SeededRng rng(seed * 31 + 11);
  const std::vector<std::string> pool = StringPool(rng);
  std::vector<std::uint32_t> msg_of(schedule.size());
  for (auto& m : msg_of) m = static_cast<std::uint32_t>(rng.Below(kStringPool));

  struct Pending {
    std::size_t arrival = 0;
    corba::ULong request_id = 0;
    TracedCall tc;
    TimePoint send_start;
    TimePoint call;
  };
  BlockingQueue<Pending> queues[2];
  std::vector<double> late_us(schedule.size(), 0.0);
  const std::int64_t warmup_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(kWarmup).count();
  // The schedule's time zero; the measured window starts kWarmup later.
  const TimePoint origin = Now();

  Body generator = [&](const Window&, Tally& t) {
    // Sleep to each due time precisely: the default 50 us timer slack
    // would make every arrival late.
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    for (std::size_t i = 0; i < schedule.size(); ++i) {
      const TimePoint due = origin + nanoseconds(schedule[i].due_ns);
      std::this_thread::sleep_until(due);
      Pending p;
      p.arrival = i;
      p.send_start = Now();
      late_us[i] = UsBetween(due, p.send_start);
      Binding& b = *rig.bindings[schedule[i].cls];
      if (!p.tc.Begin(tracer)) break;
      ++t.attempted;
      const std::string& msg = pool[msg_of[i]];
      cdr::Encoder enc =
          EncodeArgs(b, p.tc.id, [&](cdr::Encoder& e) { e.PutString(msg); });
      p.call = Now();
      auto id = b.InvokeDeferred(kOpEcho, enc.buffer().view());
      if (!id.ok()) {
        t.Fail("deferred echo: " + id.status().ToString());
        continue;
      }
      p.request_id = *id;
      queues[schedule[i].cls].Push(std::move(p));
    }
    for (auto& q : queues) q.Close();
  };
  auto collector = [&](std::size_t cls) -> Body {
    return [&, cls](const Window&, Tally& t) {
      Binding& b = *rig.bindings[cls];
      const TimePoint give_up = origin + kWarmup + measure + seconds(10);
      while (auto p = queues[cls].Pop()) {
        const Duration left = std::max<Duration>(give_up - Now(),
                                                 milliseconds(1));
        auto reply = b.PollReply(p->request_id, left);
        const TimePoint ret = Now();
        if (!reply.ok()) {
          t.Fail("deferred echo reply: " + reply.status().ToString());
          continue;
        }
        cdr::Decoder dec = reply->MakeDecoder();
        auto got = dec.GetStringView();
        const TimePoint done = Now();
        if (!got.ok() || *got != pool[msg_of[p->arrival]] ||
            !TraceTrailerOk(dec, p->tc.id)) {
          t.Fail("echo reply does not match the request");
          continue;
        }
        const Arrival& a = schedule[p->arrival];
        if (a.due_ns < warmup_ns) continue;
        ++t.completed;
        t.payload_bytes += 2 * kEchoBytes;
        t.lat.push_back({UsBetween(origin + kWarmup, done),
                         UsBetween(origin + nanoseconds(a.due_ns), done)});
        p->tc.Record(p->send_start, p->call, ret, done);
      }
    };
  };

  std::vector<Body> bodies = {collector(kLow), collector(kHigh), generator};
  std::vector<Tally> tallies(3);
  RunStats out = Drive(rig, bodies, tallies, WindowFrom(origin, measure));
  // tallies: [0] low collector, [1] high collector, [2] generator (sends).
  out.low = tallies[kLow].lat;
  out.high = tallies[kHigh].lat;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    if (schedule[i].due_ns >= warmup_ns) out.late_us.push_back(late_us[i]);
  }
  // Calls arrive until the end of the window; Drive's elapsed time also
  // covers draining the last replies.
  out.elapsed_s = ToSeconds(measure);
  return out;
}

// ---- calibration probes (traced pass) ---------------------------------------

constexpr int kProbeRounds = 2000;
constexpr int kProbeWarmup = 50;

// Times `rounds` calls of `once`, one round trip each, after a warm-up.
// Fails on the first round trip `once` reports as failed.
template <typename Once>
Result<std::vector<double>> PingPong(int rounds, const Once& once) {
  std::vector<double> us;
  for (int i = -kProbeWarmup; i < rounds; ++i) {
    const TimePoint t = Now();
    if (!once()) return Status(InternalError("probe round trip failed"));
    if (i >= 0) us.push_back(UsBetween(t, Now()));
  }
  return us;
}

// sim.stream_rtt: raw sim::StreamSocket ping-pong, no transport framing.
Result<std::vector<double>> SimStreamRtt(sim::Network* net,
                                         std::size_t request,
                                         std::size_t reply) {
  const sim::Address addr{"server", 7301};
  COOL_ASSIGN_OR_RETURN(auto listener, net->Listen(addr));
  COOL_ASSIGN_OR_RETURN(auto cli, net->Connect("client", addr));
  COOL_ASSIGN_OR_RETURN(auto srv, listener->Accept());
  Thread echo([&] {
    std::vector<std::uint8_t> in(request);
    const std::vector<std::uint8_t> out(reply, 0x5a);
    while (srv->RecvExact(in).ok() && srv->Send(out).ok()) {
    }
  });
  const std::vector<std::uint8_t> out(request, 0xa5);
  std::vector<std::uint8_t> in(reply);
  auto us = PingPong(kProbeRounds, [&] {
    return cli->Send(out).ok() && cli->RecvExact(in).ok();
  });
  cli->Close();
  srv->Close();
  echo.join();
  return us;
}

// transport.floor_rtt: ComChannel ping-pong, client channel from
// ORB::OpenChannel (the ORB's own estimate and graph selection), server a
// bare ComManager echoing messages; no GIOP.
Result<std::vector<double>> FloorRtt(orb::ORB* client, sim::Network* net,
                                     orb::Protocol protocol,
                                     const qos::QoSSpec& spec,
                                     std::size_t request, std::size_t reply) {
  std::unique_ptr<transport::ComManager> mgr;
  orb::ObjectRef ref;
  ref.protocol = protocol;
  if (protocol == orb::Protocol::kTcp) {
    ref.endpoint = sim::Address{"server", 7302};
    auto tcp = std::make_unique<transport::TcpComManager>(net, ref.endpoint);
    COOL_RETURN_IF_ERROR(tcp->Listen());
    mgr = std::move(tcp);
  } else {
    ref.endpoint = sim::Address{"server", 7303};
    auto dc = std::make_unique<transport::DacapoComManager>(net, ref.endpoint,
                                                            Estimate());
    COOL_RETURN_IF_ERROR(dc->Listen());
    mgr = std::move(dc);
  }
  Thread echo([&] {
    auto ch = mgr->AcceptChannel();
    if (!ch.ok()) return;
    const std::vector<std::uint8_t> out(reply, 0x5a);
    while ((*ch)->ReceiveMessage(seconds(5)).ok() &&
           (*ch)->SendMessage(out).ok()) {
    }
    (*ch)->Close();
  });
  auto us = [&]() -> Result<std::vector<double>> {
    COOL_ASSIGN_OR_RETURN(auto ch, client->OpenChannel(ref, spec));
    const std::vector<std::uint8_t> out(request, 0xa5);
    auto rtt = PingPong(kProbeRounds, [&] {
      if (!ch->SendMessage(out).ok()) return false;
      auto in = ch->ReceiveMessage(seconds(5));
      return in.ok() && in->size() == reply;
    });
    ch->Close();
    return rtt;
  }();
  mgr->Close();
  echo.join();
  return us;
}

// orb.colocated_call: a Stub on the server ORB itself (the object adapter's
// colocation path), 16-byte echoes.
Result<std::vector<double>> ColocatedCall(orb::ORB* server) {
  auto servant = std::make_shared<BenchServant>(Duration::zero(), nullptr);
  COOL_ASSIGN_OR_RETURN(orb::ObjectRef ref,
                        server->RegisterServant("colocated", servant));
  StubBinding b(server, ref);
  return PingPong(10 * kProbeRounds, [&] {
    return EchoOnce(b, nullptr, "colocated-probe!").ok();
  });
}

// ---- metrics ------------------------------------------------------------------

std::vector<double> Latencies(const std::vector<Sample>& samples) {
  std::vector<double> us;
  us.reserve(samples.size());
  for (const Sample& s : samples) us.push_back(s.us);
  return us;
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;  // sample counts, shown beside the value
};

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
    metrics_.push_back({name, value, unit, note});
  }
  // Adds p50 or p99 of `samples` (unsorted) when reportable; otherwise
  // records a problem.
  void AddPercentile(const std::string& name, std::vector<double> samples,
                     double p, const std::string& unit = "us") {
    std::sort(samples.begin(), samples.end());
    auto pct = PercentileOf(samples, p);
    if (!pct) {
      Problem(name + ": " + std::to_string(samples.size()) +
              " samples leave fewer than " +
              std::to_string(kMinSamplesBeyond) + " beyond p" +
              std::to_string(static_cast<int>(p)));
      return;
    }
    Add(name, pct->value, unit,
        "n=" + std::to_string(pct->samples) + ", " +
            std::to_string(pct->beyond) + " beyond");
  }
  void Problem(const std::string& what) { problems_.push_back(what); }
  bool ok() const { return problems_.empty(); }

  void AbsorbProblems(const Report& sub) {
    problems_.insert(problems_.end(), sub.problems_.begin(),
                     sub.problems_.end());
  }

  void PrintLines() const {
    for (const Metric& m : metrics_) {
      std::printf("  %-36s %14.4f %-7s %s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.note.c_str());
    }
    for (const std::string& p : problems_) {
      std::printf("  PROBLEM: %s\n", p.c_str());
    }
  }

  // Human-readable lines, then the RESULT line for run.py.
  void Print(std::uint64_t attempted, std::uint64_t failed) const {
    PrintLines();
    std::string json = "{\"correct\": ";
    json += ok() && failed == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof value, "%.17g", metrics_[i].value);
      json += (i == 0 ? "\"" : ", \"") + metrics_[i].name +
              "\": {\"value\": " + value + ", \"unit\": \"" +
              metrics_[i].unit + "\"}";
    }
    json += "}}";
    std::printf("RESULT %s\n", json.c_str());
    std::fflush(stdout);
  }

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> problems_;
};

RunStats RunWorkload(const Workload& w, Rig& rig, Tracer* tracer,
                     std::uint64_t seed, Duration measure) {
  if (w.name == "rpc_small" || w.name == "qos_closed") {
    return RunClosedEcho(rig, tracer, seed, measure, w.name == "qos_closed");
  }
  if (w.name == "dacapo_bulk") {
    return RunDacapoBulk(rig, tracer, seed, measure);
  }
  return RunQosMixed(rig, tracer, seed, measure);
}

void ReportFailures(Report& rep, const RunStats& s) {
  std::printf("  %-36s %14.6f %-7s (%llu failed of %llu attempted)\n",
              "fail_frac",
              s.all.attempted == 0 ? 0.0
                                   : static_cast<double>(s.all.failed) /
                                         static_cast<double>(s.all.attempted),
              "ratio", static_cast<unsigned long long>(s.all.failed),
              static_cast<unsigned long long>(s.all.attempted));
  if (!s.all.first_error.empty()) {
    rep.Problem("first failure: " + s.all.first_error);
  }
  if (s.all.completed == 0) rep.Problem("no call completed in the window");
}

// Open loop only: lateness of the generator against its schedule.
void ReportGenerator(Report& rep, const RunStats& s) {
  if (s.late_us.empty()) return;
  std::vector<double> late = s.late_us;
  std::sort(late.begin(), late.end());
  const auto p50 = PercentileOf(late, 50);
  const auto p99 = PercentileOf(late, 99);
  if (!p50 || !p99) {
    rep.Problem("gen.late: too few arrivals");
    return;
  }
  std::printf("  %-36s %14.4f %-7s n=%zu, %zu beyond\n", "gen.late_p50_us",
              p50->value, "us", p50->samples, p50->beyond);
  std::printf("  %-36s %14.4f %-7s n=%zu, %zu beyond\n", "gen.late_p99_us",
              p99->value, "us", p99->samples, p99->beyond);
  if (p50->value > kMaxLateP50Us) {
    rep.Problem("run invalid: the generator fell behind its schedule "
                "(gen.late_p50_us above " +
                std::to_string(static_cast<int>(kMaxLateP50Us)) + " us)");
  }
}

// The values one end-to-end metric takes, pooled over the sub-runs: one
// per slice for rates and latencies, one per sub-run for the rest.
struct Pool {
  enum Kind { kRate, kLatency, kPerSubRun };
  std::string name;
  std::string unit;
  Kind kind = kPerSubRun;
  std::vector<double> values;
  std::size_t samples = 0;
  std::size_t beyond = 0;  // per slice, the smallest

  double Value() const {
    switch (kind) {
      case kRate: return QuantileOf(values, kRateSliceQuantile);
      case kLatency: return QuantileOf(values, kLatencySliceQuantile);
      case kPerSubRun: return Median(values);
    }
    return 0;
  }
  std::string Note() const {
    const std::string count = std::to_string(values.size());
    switch (kind) {
      case kRate:
        return "n=" + std::to_string(samples) + ", p90 of " + count +
               " 0.25 s slices, median " + std::to_string(Median(values));
      case kLatency:
        return "n=" + std::to_string(samples) + ", p10 of " + count +
               " slices, >=" + std::to_string(beyond) +
               " beyond each, median " + std::to_string(Median(values));
      case kPerSubRun: break;
    }
    return "median of " + count + " sub-runs";
  }
};

// Every end-to-end metric but setup_s, in report order.
class Pools {
 public:
  // Adds one sub-run's values to the pools, and reports that sub-run's own
  // figures (its slices only) to `sub`.
  void Add(Report& sub, const RunStats& s) {
    const double calls = static_cast<double>(s.all.completed);
    const std::vector<double> rates =
        SliceRates(s.all.lat, s.elapsed_s * 1e6, kRateSliceUs);
    std::vector<double> goodput;
    const double bits_per_call = static_cast<double>(s.all.payload_bytes) /
                                 std::max(calls, 1.0) * 8;
    for (double r : rates) goodput.push_back(r * bits_per_call / 1e6);
    AddValues(sub, "calls_per_s", "1/s", Pool::kRate, rates, s.all.completed,
              0);
    AddPercentile(sub, "lat_p50_us", s.all.lat, 50);
    AddPercentile(sub, "lat_p99_us", s.all.lat, 99);
    AddValues(sub, "goodput_mbps", "Mbit/s", Pool::kRate, goodput,
              s.all.completed, 0);
    AddPercentile(sub, "high_p50_us", s.high, 50);
    AddPercentile(sub, "high_p99_us", s.high, 99);
    AddPercentile(sub, "low_p50_us", s.low, 50);
    AddPercentile(sub, "low_p99_us", s.low, 99);
    AddValues(sub, "cpu_us_per_call", "us", Pool::kPerSubRun,
              {s.cpu_s * 1e6 / std::max(calls, 1.0)}, s.all.completed, 0);
    AddValues(sub, "rss_mb", "MB", Pool::kPerSubRun, {s.rss_mb}, 0, 0);
  }

  void ReportTo(Report& rep) const {
    for (const Pool& p : pools_) rep.Add(p.name, p.Value(), p.unit, p.Note());
  }

 private:
  void AddPercentile(Report& sub, const std::string& name,
                     const std::vector<Sample>& samples, double p) {
    auto sliced = SlicePercentiles(samples, p);
    if (!sliced) {
      sub.Problem(name + ": " + std::to_string(samples.size()) +
                  " samples are too few for one slice");
      return;
    }
    AddValues(sub, name, "us", Pool::kLatency, sliced->per_slice,
              sliced->samples, sliced->beyond);
  }

  void AddValues(Report& sub, const std::string& name,
                 const std::string& unit, Pool::Kind kind,
                 const std::vector<double>& values, std::size_t samples,
                 std::size_t beyond) {
    Pool own{name, unit, kind, values, samples, beyond};
    sub.Add(name, own.Value(), unit, own.Note());
    auto it = std::find_if(pools_.begin(), pools_.end(),
                           [&](const Pool& p) { return p.name == name; });
    if (it == pools_.end()) {
      pools_.push_back(std::move(own));
      return;
    }
    it->values.insert(it->values.end(), values.begin(), values.end());
    it->samples += samples;
    it->beyond = std::min(it->beyond, beyond);
  }

  std::vector<Pool> pools_;
};

// Spans of the measured traced calls.
struct Spans {
  std::vector<double> invoke, demux, send, request_path, upcall, reply_path;
  double encode_us = 0, decode_us = 0, servant_codec_us = 0;  // means
};

Spans CollectSpans(Tracer& tracer) {
  Spans s;
  double enc = 0, dec = 0, codec = 0;
  std::size_t n = 0;
  auto us = [](std::int64_t a, std::int64_t b) {
    return static_cast<double>(b - a) / 1e3;
  };
  for (std::size_t i = 0; i < tracer.used(); ++i) {
    const CallRecord& r = tracer.at(static_cast<std::uint32_t>(i));
    if (r.call == 0 || r.ret == 0) continue;  // not a measured call
    ++n;
    enc += static_cast<double>(r.encode_ns);
    dec += static_cast<double>(r.decode_ns);
    codec += static_cast<double>(r.servant_codec_ns);
    s.invoke.push_back(us(r.call, r.ret));
    if (r.rx != 0) s.demux.push_back(us(r.rx, r.ret));
    if (r.send_end != 0) s.send.push_back(us(r.send_begin, r.send_end));
    if (r.send_end != 0 && r.srv_entry != 0) {
      s.request_path.push_back(us(r.send_end, r.srv_entry));
    }
    if (r.srv_entry != 0) s.upcall.push_back(us(r.srv_entry, r.srv_exit));
    if (r.srv_exit != 0 && r.rx != 0) {
      s.reply_path.push_back(us(r.srv_exit, r.rx));
    }
  }
  const double d = std::max<double>(static_cast<double>(n), 1) * 1e3;
  s.encode_us = enc / d;
  s.decode_us = dec / d;
  s.servant_codec_us = codec / d;
  return s;
}

// The spec and reference of the workload's QoS-bearing binding, or of its
// primary binding when no binding carries QoS.
const BindingPlan& QosPlan(const Workload& w) {
  for (const BindingPlan& p : w.bindings) {
    if (!p.spec.empty()) return p;
  }
  return w.bindings[0];
}

Result<double> MedianBindUs(const Workload& w, Rig& rig) {
  std::vector<double> totals;
  for (int round = 0; round < 7; ++round) {
    double total = 0;
    for (const BindingPlan& plan : w.bindings) {
      const TimePoint t = Now();
      COOL_ASSIGN_OR_RETURN(
          auto ch, rig.client->OpenChannel(rig.RefFor(plan.protocol),
                                           plan.spec));
      total += UsBetween(t, Now());
      ch->Close();
    }
    totals.push_back(total);
  }
  return Median(std::move(totals));
}

double MedianSetQosUs(const BindingPlan& plan, Rig& rig) {
  std::vector<double> us;
  for (int i = 0; i < 200; ++i) {
    orb::Stub stub(rig.client.get(), rig.RefFor(plan.protocol));
    const TimePoint t = Now();
    const Status s = stub.SetQoSParameter(plan.spec);
    us.push_back(UsBetween(t, Now()));
    if (!s.ok()) return -1;
  }
  return Median(std::move(us));
}

double ClassifyNs(const BindingPlan& plan) {
  constexpr int kRounds = 200'000;
  const std::vector<qos::QoSParameter>& params = plan.spec.parameters();
  std::uint64_t sink = 0;
  const TimePoint t = Now();
  for (int i = 0; i < kRounds; ++i) {
    const qos::SchedProfile p = qos::ClassifyForScheduling(params);
    sink += p.weight + static_cast<std::uint64_t>(p.band);
    asm volatile("" : "+r"(sink));
  }
  return ToMicros(Now() - t) * 1e3 / kRounds;
}

void AddDispatch(Report& rep, orb::ORB& server) {
  static const char* kNames[] = {"high", "normal", "low"};
  const auto snap = server.dispatch_pool()->StatsSnapshot();
  for (std::size_t c = 0; c < giop::kDispatchClasses; ++c) {
    const std::string pre = std::string("giop.dispatch.") + kNames[c] + ".";
    rep.Add(pre + "dispatched", static_cast<double>(snap[c].dispatched),
            "count");
    rep.Add(pre + "dropped", static_cast<double>(snap[c].dropped), "count");
    rep.Add(pre + "sojourn_p50_us",
            static_cast<double>(snap[c].sojourn_p50_us), "us");
    rep.Add(pre + "sojourn_p99_us",
            static_cast<double>(snap[c].sojourn_p99_us), "us");
  }
}

double P50(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  auto p = PercentileOf(v, 50);
  return p ? p->value : 0;
}

// ---- main -------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

std::optional<Args> ParseArgs(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, &end);
    } else if (flag == "--trace") {
      a.trace = std::strtol(v, &end, 10) != 0;
    } else {
      return std::nullopt;
    }
    if (end != nullptr && *end != '\0') return std::nullopt;
  }
  if (argc % 2 != 1 || !have_workload || !(a.seconds > 0)) {
    return std::nullopt;
  }
  return a;
}

int Fatal(const std::string& what) {
  std::fprintf(stderr, "orb_bench: %s\n", what.c_str());
  return 2;
}

// kSubRuns sub-runs each time kSetupsPerSubRun set-ups, then build fresh
// ORBs, take a seed of their own and measure a kSubRuns-th of the run.
// Rates and latencies are quantiles over the slices of all sub-runs (see
// kLatencySliceQuantile), CPU and memory are medians of the sub-runs, and
// setup_s is the median of all set-ups, which are spread over the run. So
// a busy spell of the host or an unlucky thread placement in one sub-run
// moves no metric much.
int RunEndToEnd(const Workload& w, const Args& args) {
  const Duration measure = std::chrono::duration_cast<Duration>(
      std::chrono::duration<double>(args.seconds / kSubRuns));
  std::vector<double> setups;
  Report rep;
  std::printf("%s seed=%llu end-to-end (%d sub-runs of %.1f s)\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              kSubRuns, args.seconds / kSubRuns);
  Pools pools;
  const HostTicks run_start = ReadHostTicks();
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (int k = 0; k < kSubRuns; ++k) {
    for (int r = 0; r < kSetupsPerSubRun; ++r) {
      const TimePoint t = Now();
      auto built = BuildRig(w, nullptr);
      if (!built.ok()) return Fatal("set-up: " + built.status().ToString());
      setups.push_back(ToSeconds(Now() - t));
    }  // each rig is torn down outside the timed span
    // Every sub-run starts from a trimmed heap, so rss_mb does not count
    // memory an earlier sub-run freed.
    malloc_trim(0);
    auto built = BuildRig(w, nullptr);
    if (!built.ok()) return Fatal("set-up: " + built.status().ToString());
    std::unique_ptr<Rig> rig = std::move(*built);
    const HostTicks sub_start = ReadHostTicks();
    const RunStats s = RunWorkload(w, *rig, nullptr,
                                   args.seed * kSubRuns + k, measure);
    std::printf(" sub-run %d (the hypervisor took %.2f%% of the CPU time)\n",
                k + 1, StealPct(sub_start, ReadHostTicks()));
    Report sub;
    ReportFailures(sub, s);
    ReportGenerator(sub, s);
    pools.Add(sub, s);
    attempted += s.all.attempted;
    failed += s.all.failed;
    sub.PrintLines();
    rep.AbsorbProblems(sub);
  }
  std::printf(" run (all sub-runs; the hypervisor took %.2f%% of the CPU "
              "time)\n",
              StealPct(run_start, ReadHostTicks()));
  rep.Add("setup_s", Median(setups), "s",
          "median of " + std::to_string(setups.size()) + " set-ups");
  pools.ReportTo(rep);
  rep.Print(attempted, failed);
  return rep.ok() && failed == 0 ? 0 : 1;
}

int RunTraced(const Workload& w, const Args& args) {
  const Duration half = std::chrono::duration_cast<Duration>(
      std::chrono::duration<double>(args.seconds / 2));
  Report rep;
  std::printf("%s seed=%llu per-layer (%.1f s untraced + %.1f s traced)\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds / 2, args.seconds / 2);

  // Untraced half: the baseline for trace.overhead_pct, and the counters
  // the ORB keeps itself.
  RunStats plain;
  {
    auto rig = BuildRig(w, nullptr);
    if (!rig.ok()) return Fatal("set-up: " + rig.status().ToString());
    plain = RunWorkload(w, **rig, nullptr, args.seed, half);
  }
  ReportFailures(rep, plain);

  // Traced half on a fresh rig.
  auto tracer = std::make_unique<Tracer>();
  auto built = BuildRig(w, tracer.get());
  if (!built.ok()) return Fatal("traced set-up: " + built.status().ToString());
  std::unique_ptr<Rig> rig = std::move(*built);
  const RunStats traced = RunWorkload(w, *rig, tracer.get(), args.seed, half);
  ReportFailures(rep, traced);
  ReportGenerator(rep, traced);
  AddDispatch(rep, *rig->server);

  // Calibration probes on the traced rig's network and ORBs, now idle.
  const BindingPlan& primary = w.bindings[0];
  const BindingPlan bulk = FindWorkload("dacapo_bulk")->bindings[0];
  auto sim_rtt = SimStreamRtt(rig->net.get(), w.request_bytes, kEchoBytes);
  auto tcp_floor = FloorRtt(rig->client.get(), rig->net.get(),
                            orb::Protocol::kTcp, {}, w.request_bytes,
                            kEchoBytes);
  auto dacapo_floor = FloorRtt(rig->client.get(), rig->net.get(),
                               orb::Protocol::kDacapo, bulk.spec,
                               w.request_bytes, kEchoBytes);
  auto colocated = ColocatedCall(rig->server.get());
  auto bind_us = MedianBindUs(w, *rig);
  const double set_qos_us = MedianSetQosUs(QosPlan(w), *rig);
  const double classify_ns = ClassifyNs(QosPlan(w));
  rig.reset();  // joins every thread that wrote a trace record

  const Spans sp = CollectSpans(*tracer);
  const double calls = static_cast<double>(std::max<std::uint64_t>(
      plain.all.completed, 1));

  rep.Add("cdr.args_encode_us", sp.encode_us, "us");
  rep.Add("cdr.reply_decode_us", sp.decode_us, "us");
  rep.Add("cdr.servant_codec_us", sp.servant_codec_us, "us");
  rep.AddPercentile("giop.invoke_p50_us", sp.invoke, 50);
  rep.AddPercentile("giop.invoke_p99_us", sp.invoke, 99);
  rep.AddPercentile("giop.demux_p50_us", sp.demux, 50);
  rep.AddPercentile("giop.demux_p99_us", sp.demux, 99);
  rep.AddPercentile("transport.send_p50_us", sp.send, 50);
  rep.AddPercentile("transport.send_p99_us", sp.send, 99);
  const auto& floor =
      primary.protocol == orb::Protocol::kTcp ? tcp_floor : dacapo_floor;
  if (!sim_rtt.ok() || !tcp_floor.ok() || !dacapo_floor.ok() ||
      !colocated.ok() || !bind_us.ok() || set_qos_us < 0) {
    rep.Problem("a calibration probe failed");
  } else {
    rep.AddPercentile("transport.floor_rtt_p50_us", *floor, 50);
    rep.AddPercentile("transport.floor_rtt_p99_us", *floor, 99);
    rep.AddPercentile("sim.stream_rtt_p50_us", *sim_rtt, 50);
    rep.Add("orb.colocated_call_p50_us", P50(*colocated), "us");
    rep.Add("orb.bind_us", *bind_us, "us", "median of 7");
    std::printf("  probe: tcp floor p50 %.2f us, dacapo (bulk graph) floor "
                "p50 %.2f us, sim p50 %.2f us (%zu-byte requests)\n",
                P50(*tcp_floor), P50(*dacapo_floor), P50(*sim_rtt),
                w.request_bytes);
  }
  rep.Add("dacapo.packets_per_call",
          traced.dacapo_calls == 0
              ? 0.0
              : static_cast<double>(traced.dacapo_packets) /
                    static_cast<double>(traced.dacapo_calls),
          "count");
  rep.Add("dacapo.wire_bytes_per_payload_byte",
          traced.dacapo_payload == 0
              ? 0.0
              : static_cast<double>(traced.dacapo_bytes) /
                    static_cast<double>(traced.dacapo_payload),
          "ratio");
  rep.AddPercentile("orb.request_path_p50_us", sp.request_path, 50);
  rep.AddPercentile("orb.request_path_p99_us", sp.request_path, 99);
  rep.Add("orb.upcall_us", P50(sp.upcall), "us", "median");
  rep.AddPercentile("orb.reply_path_p50_us", sp.reply_path, 50);
  rep.AddPercentile("orb.reply_path_p99_us", sp.reply_path, 99);
  rep.Add("orb.threads", plain.threads, "count");
  rep.Add("qos.set_qos_us", set_qos_us, "us", "median of 200");
  rep.Add("qos.classify_ns", classify_ns, "ns");
  rep.Add("common.allocs_per_call",
          static_cast<double>(plain.allocs) / calls, "count");
  const double leases =
      static_cast<double>(plain.pool_hits + plain.pool_misses);
  rep.Add("common.pool_hit_ratio",
          leases == 0 ? 0.0 : static_cast<double>(plain.pool_hits) / leases,
          "ratio");
  const double plain_p50 = P50(Latencies(plain.all.lat));
  const double traced_p50 = P50(Latencies(traced.all.lat));
  rep.Add("trace.overhead_pct",
          plain_p50 == 0 ? 0.0 : (traced_p50 - plain_p50) / plain_p50 * 100,
          "%",
          "traced lat_p50 " + std::to_string(traced_p50) + " us vs " +
              std::to_string(plain_p50) + " us");
  const std::uint64_t attempted = plain.all.attempted + traced.all.attempted;
  const std::uint64_t failed = plain.all.failed + traced.all.failed;
  rep.Print(attempted, failed);
  return rep.ok() && failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace cool::perfbench

int main(int argc, char** argv) {
  using namespace cool::perfbench;
  const auto args = ParseArgs(argc, argv);
  if (!args) {
    return Fatal(
        "usage: orb_bench --workload "
        "rpc_small|qos_closed|dacapo_bulk|qos_mixed "
        "--seed N --seconds S --trace 0|1");
  }
  const auto w = FindWorkload(args->workload);
  if (!w) return Fatal("unknown workload " + args->workload);
  return args->trace ? RunTraced(*w, *args) : RunEndToEnd(*w, *args);
}
