// Stream object adapter end-to-end: ORB-mediated flow setup, bilateral
// flow-QoS negotiation, data over a QoS-configured Da CaPo session,
// receiver stats via the control interface.
#include "stream/stream_adapter.h"

#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <thread>

#include "sim/reactor.h"

namespace cool::stream {
namespace {

sim::LinkProperties QuickLink() {
  sim::LinkProperties link;
  link.bandwidth_bps = 0;
  link.latency = microseconds(100);
  return link;
}

// The "Threads:" line of /proc/self/status, or -1 when unreadable.
int ProcessThreads() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return -1;
}

qos::Capability MediaCapability(corba::Long max_kbps) {
  qos::Capability cap;
  cap.SetBest(qos::ParamType::kThroughputKbps, max_kbps);
  cap.SetBest(qos::ParamType::kReliability, 2);
  cap.SetBest(qos::ParamType::kOrdering, 1);
  cap.SetBest(qos::ParamType::kEncryption, 1);
  cap.SetBest(qos::ParamType::kLatencyMicros, 0);
  cap.SetBest(qos::ParamType::kJitterMicros, 0);
  cap.SetBest(qos::ParamType::kLossPermille, 0);
  cap.SetBest(qos::ParamType::kPriority, 255);
  return cap;
}

class StreamAdapterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    net_ = std::make_unique<sim::Network>(QuickLink());
    server_ = std::make_unique<orb::ORB>(net_.get(), "media-server");
    client_ = std::make_unique<orb::ORB>(net_.get(), "viewer");
    estimate_.bandwidth_bps = 100'000'000;
    estimate_.rtt_us = 400;
    service_ = std::make_shared<StreamService>(
        net_.get(), "media-server", estimate_, MediaCapability(50'000));
    auto ref = server_->RegisterServant("tv", service_);
    ASSERT_TRUE(ref.ok());
    ref_ = *ref;
    ASSERT_TRUE(server_->Start().ok());
    stub_ = std::make_unique<orb::Stub>(client_.get(), ref_);
  }

  void TearDown() override {
    stub_.reset();
    server_->Shutdown();
  }

  FlowSpec FastSpec() {
    FlowSpec spec;
    spec.frame_rate_hz = 200.0;  // 5ms period: quick to accumulate frames
    spec.frame_bytes = 1024;
    return spec;
  }

  std::unique_ptr<sim::Network> net_;
  std::unique_ptr<orb::ORB> server_;
  std::unique_ptr<orb::ORB> client_;
  dacapo::NetworkEstimate estimate_;
  std::shared_ptr<StreamService> service_;
  orb::ObjectRef ref_;
  std::unique_ptr<orb::Stub> stub_;
};

TEST_F(StreamAdapterTest, OpenStreamAndDeliverFrames) {
  auto flow = FlowConnection::Open(stub_.get(), net_.get(), "viewer",
                                   FastSpec(), estimate_);
  ASSERT_TRUE(flow.ok()) << flow.status();
  EXPECT_EQ(service_->active_flows(), 1u);

  ASSERT_TRUE((*flow)->source().Start().ok());
  std::this_thread::sleep_for(milliseconds(300));
  (*flow)->source().Stop();
  std::this_thread::sleep_for(milliseconds(100));

  auto stats = (*flow)->RemoteStats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_GT(stats->frames_received, 20u);
  EXPECT_NEAR(stats->measured_fps, 200.0, 80.0);

  ASSERT_TRUE((*flow)->Close().ok());
  EXPECT_EQ(service_->active_flows(), 0u);
}

TEST_F(StreamAdapterTest, ExcessiveFlowQosNacked) {
  FlowSpec greedy = FastSpec();
  greedy.frame_rate_hz = 1000.0;
  greedy.frame_bytes = 64 * 1024;  // ~512 Mbit/s >> capability 50 Mbit/s
  auto flow = FlowConnection::Open(stub_.get(), net_.get(), "viewer",
                                   greedy, estimate_);
  EXPECT_EQ(flow.status().code(), ErrorCode::kResourceExhausted);
  EXPECT_EQ(service_->active_flows(), 0u);
}

TEST_F(StreamAdapterTest, FlowQosConfiguresDataGraph) {
  FlowSpec spec = FastSpec();
  spec.qos = *qos::QoSSpec::FromParameters(
      {qos::RequireReliability(2), qos::RequireEncryption(true)});
  auto flow = FlowConnection::Open(stub_.get(), net_.get(), "viewer", spec,
                                   estimate_);
  ASSERT_TRUE(flow.ok()) << flow.status();
  const dacapo::ModuleGraphSpec graph = (*flow)->data_graph();
  bool has_arq = false;
  bool has_cipher = false;
  for (const auto& m : graph.chain) {
    if (m.name == dacapo::mechanisms::kIrq ||
        m.name == dacapo::mechanisms::kGoBackN) {
      has_arq = true;
    }
    if (m.name == dacapo::mechanisms::kXorCipher) has_cipher = true;
  }
  EXPECT_TRUE(has_arq);
  EXPECT_TRUE(has_cipher);
  ASSERT_TRUE((*flow)->Close().ok());
}

TEST_F(StreamAdapterTest, ReliableFlowSurvivesLossyLink) {
  // 10% datagram loss between viewer and server; a flow with a loss bound
  // of 0 gets an ARQ graph and must deliver every frame.
  sim::LinkProperties lossy = QuickLink();
  lossy.loss_rate = 0.10;
  net_->SetLink("viewer", "media-server", lossy);

  FlowSpec spec = FastSpec();
  spec.frame_rate_hz = 100.0;
  spec.qos = *qos::QoSSpec::FromParameters(
      {qos::RequireLossPermille(0, 0)});
  dacapo::NetworkEstimate est = estimate_;
  est.loss_rate = lossy.loss_rate;
  auto flow =
      FlowConnection::Open(stub_.get(), net_.get(), "viewer", spec, est);
  ASSERT_TRUE(flow.ok()) << flow.status();

  ASSERT_TRUE((*flow)->source().Start().ok());
  std::this_thread::sleep_for(milliseconds(400));
  (*flow)->source().Stop();
  std::this_thread::sleep_for(milliseconds(200));

  auto stats = (*flow)->RemoteStats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_GT(stats->frames_received, 10u);
  EXPECT_EQ(stats->frames_lost, 0u);  // ARQ recovered every loss
  ASSERT_TRUE((*flow)->Close().ok());
}

// A flow costs reactor registrations, not threads: once
// sim::Reactor::Default() is warm, opening 4 flows and starting their
// sources leaves the process thread count where it was.
TEST_F(StreamAdapterTest, OpenFlowsSpawnNoThreads) {
  (void)sim::Reactor::Default();   // warm: its workers predate the count
  ASSERT_TRUE(stub_->LocateObject().ok());  // and the control binding
  const int threads_before = ProcessThreads();
  ASSERT_GT(threads_before, 0);

  std::vector<std::unique_ptr<FlowConnection>> flows;
  for (int i = 0; i < 4; ++i) {
    auto flow = FlowConnection::Open(stub_.get(), net_.get(), "viewer",
                                     FastSpec(), estimate_);
    ASSERT_TRUE(flow.ok()) << flow.status();
    ASSERT_TRUE((*flow)->source().Start().ok());
    flows.push_back(std::move(flow).value());
  }
  // Every sink is up once its flow reports stats.
  for (const auto& flow : flows) {
    const TimePoint deadline = Now() + seconds(2);
    while (!service_->StatsFor(flow->flow_id()).ok() && Now() < deadline) {
      std::this_thread::sleep_for(milliseconds(1));
    }
    ASSERT_TRUE(service_->StatsFor(flow->flow_id()).ok());
  }
  std::this_thread::sleep_for(milliseconds(50));
  EXPECT_EQ(ProcessThreads(), threads_before);
  for (const auto& flow : flows) EXPECT_GT(flow->source().frames_sent(), 0u);
  for (const auto& flow : flows) ASSERT_TRUE(flow->Close().ok());
  EXPECT_EQ(service_->active_flows(), 0u);
}

TEST_F(StreamAdapterTest, StatsForUnknownFlowFails) {
  cdr::Encoder args = stub_->MakeArgsEncoder();
  args.PutULong(777);
  auto reply = stub_->Invoke("flow_stats", args.buffer().view());
  EXPECT_EQ(reply.status().code(), ErrorCode::kNotFound);
}

TEST_F(StreamAdapterTest, CloseUnknownFlowFails) {
  cdr::Encoder args = stub_->MakeArgsEncoder();
  args.PutULong(777);
  auto reply = stub_->Invoke("close_flow", args.buffer().view());
  EXPECT_EQ(reply.status().code(), ErrorCode::kNotFound);
}

TEST_F(StreamAdapterTest, MultipleConcurrentFlows) {
  auto flow1 = FlowConnection::Open(stub_.get(), net_.get(), "viewer",
                                    FastSpec(), estimate_);
  auto flow2 = FlowConnection::Open(stub_.get(), net_.get(), "viewer",
                                    FastSpec(), estimate_);
  ASSERT_TRUE(flow1.ok());
  ASSERT_TRUE(flow2.ok());
  EXPECT_NE((*flow1)->flow_id(), (*flow2)->flow_id());
  EXPECT_EQ(service_->active_flows(), 2u);
  ASSERT_TRUE((*flow1)->source().Start().ok());
  ASSERT_TRUE((*flow2)->source().Start().ok());
  std::this_thread::sleep_for(milliseconds(200));
  (*flow1)->source().Stop();
  (*flow2)->source().Stop();
  std::this_thread::sleep_for(milliseconds(100));
  auto s1 = (*flow1)->RemoteStats();
  auto s2 = (*flow2)->RemoteStats();
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s2.ok());
  EXPECT_GT(s1->frames_received, 5u);
  EXPECT_GT(s2->frames_received, 5u);
}

TEST_F(StreamAdapterTest, ResourceManagerBoundsAggregateFlows) {
  dacapo::ResourceManager::Budget budget;
  budget.bandwidth_kbps = 3000;
  budget.packet_memory_bytes = 1 << 30;
  dacapo::ResourceManager resources(budget);
  auto limited_service = std::make_shared<StreamService>(
      net_.get(), "media-server", estimate_, MediaCapability(50'000),
      &resources);
  auto ref = server_->RegisterServant("tv2", limited_service);
  ASSERT_TRUE(ref.ok());
  orb::Stub stub(client_.get(), *ref);

  FlowSpec spec = FastSpec();  // 200 fps x 1 KiB = 1638 kbps nominal
  auto flow1 =
      FlowConnection::Open(&stub, net_.get(), "viewer", spec, estimate_);
  ASSERT_TRUE(flow1.ok()) << flow1.status();
  // Second flow would exceed the 3000 kbps aggregate budget.
  auto flow2 =
      FlowConnection::Open(&stub, net_.get(), "viewer", spec, estimate_);
  EXPECT_EQ(flow2.status().code(), ErrorCode::kResourceExhausted);
  // Releasing the first frees the budget.
  ASSERT_TRUE((*flow1)->Close().ok());
  auto flow3 =
      FlowConnection::Open(&stub, net_.get(), "viewer", spec, estimate_);
  EXPECT_TRUE(flow3.ok()) << flow3.status();
}

}  // namespace
}  // namespace cool::stream
