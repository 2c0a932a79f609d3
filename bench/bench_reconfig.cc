// Ablation A2: dynamic (re)configuration — the "configure protocols on the
// fly" step the paper names as the next prototype milestone. Measures
//  (a) the configuration manager's graph selection time,
//  (b) full connection setup (CONFIG handshake + chain instantiation), and
//  (c) live reconfiguration of an established session,
// as a function of module-graph depth.
#include <cstdio>
#include <thread>

#include "bench_util.h"
#include "common/thread.h"
#include "dacapo/config_manager.h"
#include "dacapo/session.h"

namespace {

using namespace cool;
using dacapo::ChannelOptions;
using dacapo::ModuleGraphSpec;

sim::LinkProperties QuickLink() {
  sim::LinkProperties link;
  link.bandwidth_bps = 0;  // isolate protocol costs from pacing
  link.latency = microseconds(200);
  return link;
}

ModuleGraphSpec DummyChain(int count) {
  ModuleGraphSpec spec;
  for (int i = 0; i < count; ++i) {
    spec.chain.push_back({dacapo::mechanisms::kDummy, {}});
  }
  return spec;
}

double MeasureSetupMs(const ModuleGraphSpec& graph) {
  sim::Network net(QuickLink());
  dacapo::Acceptor acceptor(&net, {"server", 6200});
  if (!acceptor.Listen().ok()) return -1;
  Result<std::unique_ptr<dacapo::Session>> server_side(
      Status(InternalError("unset")));
  cool::Thread accept_thread([&] { server_side = acceptor.Accept(); });

  ChannelOptions options;
  options.graph = graph;
  dacapo::Connector connector(&net, "client");
  const Stopwatch sw;
  auto client_side = connector.Connect({"server", 6200}, options);
  const double ms = ToMillis(sw.Elapsed());
  accept_thread.join();
  if (!client_side.ok()) return -1;
  (*client_side)->Close();
  return ms;
}

double MeasureReconfigMs(const ModuleGraphSpec& from,
                         const ModuleGraphSpec& to) {
  sim::Network net(QuickLink());
  dacapo::Acceptor acceptor(&net, {"server", 6200});
  if (!acceptor.Listen().ok()) return -1;
  Result<std::unique_ptr<dacapo::Session>> server_side(
      Status(InternalError("unset")));
  cool::Thread accept_thread([&] { server_side = acceptor.Accept(); });
  ChannelOptions options;
  options.graph = from;
  dacapo::Connector connector(&net, "client");
  auto client_side = connector.Connect({"server", 6200}, options);
  accept_thread.join();
  if (!client_side.ok() || !server_side.ok()) return -1;

  const Stopwatch sw;
  if (!(*client_side)->Reconfigure(to).ok()) return -1;
  const double ms = ToMillis(sw.Elapsed());
  (*client_side)->Close();
  return ms;
}

}  // namespace

int main() {
  std::printf("=== Ablation A2: configuration & reconfiguration cost ===\n\n");

  // (a) configuration manager selection time (pure computation).
  {
    dacapo::ConfigurationManager mgr;
    dacapo::NetworkEstimate net;
    qos::ProtocolRequirements req;
    req.need_retransmission = true;
    req.need_encryption = true;
    req.min_throughput_kbps = 10'000;
    constexpr int kRounds = 10000;
    const Stopwatch sw;
    for (int i = 0; i < kRounds; ++i) {
      auto graph = mgr.Configure(req, net);
      if (!graph.ok()) return 1;
    }
    std::printf("graph selection (configuration manager): %.2f us/call\n\n",
                ToMicros(sw.Elapsed()) / kRounds);
  }

  // (b) connection setup vs graph depth.
  {
    cool::bench::Table table({"C modules", "setup ms (median of 5)"});
    for (const int depth : {0, 5, 10, 20, 40}) {
      std::vector<double> runs;
      for (int r = 0; r < 5; ++r) {
        runs.push_back(MeasureSetupMs(DummyChain(depth)));
      }
      std::sort(runs.begin(), runs.end());
      table.AddRow({std::to_string(depth),
                    cool::bench::Fmt("%.2f", runs[runs.size() / 2])});
    }
    std::printf("connection setup (CONFIG handshake + chain build):\n");
    table.Print();
  }

  // (c) live reconfiguration vs new graph depth.
  {
    cool::bench::Table table({"new graph", "reconfig ms (median of 5)"});
    struct Case {
      const char* name;
      cool::dacapo::ModuleGraphSpec to;
    };
    cool::dacapo::ModuleGraphSpec crypto;
    crypto.chain.push_back({cool::dacapo::mechanisms::kXorCipher, {}});
    crypto.chain.push_back({cool::dacapo::mechanisms::kCrc32, {}});
    const Case kCases[] = {
        {"5 dummies", DummyChain(5)},
        {"20 dummies", DummyChain(20)},
        {"cipher+crc32", crypto},
    };
    for (const Case& c : kCases) {
      std::vector<double> runs;
      for (int r = 0; r < 5; ++r) {
        runs.push_back(MeasureReconfigMs(DummyChain(0), c.to));
      }
      std::sort(runs.begin(), runs.end());
      table.AddRow({c.name, cool::bench::Fmt("%.2f", runs[runs.size() / 2])});
    }
    std::printf("\nlive reconfiguration (RECONF handshake + plane swap):\n");
    table.Print();
  }

  std::printf(
      "\nshape check: selection is microseconds; setup/reconfig are\n"
      "dominated by the signalling round-trip plus building the plane\n"
      "(arena, modules, one reactor registration; grows mildly with depth).\n");
  return 0;
}
