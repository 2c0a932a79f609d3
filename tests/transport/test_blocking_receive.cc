// The blocking ReceiveMessage and AcceptChannel every transport inherits
// from the generic transport layer: the non-blocking TryX plus one wait on
// its readiness watch. A readiness source has one watcher, so concurrent
// blocking receivers on one channel must take turns instead of displacing
// each other's watch and sleeping out their deadline.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/thread.h"
#include "transport/dacapo_channel.h"
#include "transport/ipc_channel.h"
#include "transport/tcp_channel.h"

namespace cool::transport {
namespace {

enum class Kind { kTcp, kIpc, kDacapo };

sim::LinkProperties QuickLink() {
  sim::LinkProperties link;
  link.bandwidth_bps = 0;
  link.latency = microseconds(50);
  return link;
}

std::vector<std::uint8_t> Msg(std::string_view s) {
  return {s.begin(), s.end()};
}

std::unique_ptr<ComManager> MakeManager(Kind kind, sim::Network* net,
                                        sim::Address addr) {
  switch (kind) {
    case Kind::kTcp:
      return std::make_unique<TcpComManager>(net, std::move(addr));
    case Kind::kIpc:
      return std::make_unique<IpcComManager>(net, std::move(addr));
    case Kind::kDacapo: {
      dacapo::NetworkEstimate est;
      est.bandwidth_bps = 100'000'000;
      est.rtt_us = 400;
      est.transport_reliable = true;
      return std::make_unique<DacapoComManager>(net, std::move(addr), est);
    }
  }
  return nullptr;
}

Status Listen(Kind kind, ComManager& mgr) {
  switch (kind) {
    case Kind::kTcp:
      return static_cast<TcpComManager&>(mgr).Listen();
    case Kind::kIpc:
      return static_cast<IpcComManager&>(mgr).Listen();
    case Kind::kDacapo:
      return static_cast<DacapoComManager&>(mgr).Listen();
  }
  return InternalError("unknown transport");
}

class BlockingReceiveTest : public ::testing::TestWithParam<Kind> {
 protected:
  void SetUp() override {
    net_ = std::make_unique<sim::Network>(QuickLink());
    server_mgr_ = MakeManager(GetParam(), net_.get(), {"server", 7400});
    client_mgr_ = MakeManager(GetParam(), net_.get(), {"client", 7400});
    ASSERT_TRUE(Listen(GetParam(), *server_mgr_).ok());

    Result<std::unique_ptr<ComChannel>> server_side(
        Status(InternalError("unset")));
    cool::Thread accept([&] { server_side = server_mgr_->AcceptChannel(); });
    auto client_side = client_mgr_->OpenChannel({"server", 7400}, {});
    accept.join();
    ASSERT_TRUE(client_side.ok()) << client_side.status();
    ASSERT_TRUE(server_side.ok()) << server_side.status();
    client_ = std::move(client_side).value();
    server_ = std::move(server_side).value();
  }

  std::unique_ptr<sim::Network> net_;
  std::unique_ptr<ComManager> server_mgr_;
  std::unique_ptr<ComManager> client_mgr_;
  std::unique_ptr<ComChannel> client_;
  std::unique_ptr<ComChannel> server_;
};

TEST_P(BlockingReceiveTest, ConcurrentReceiversEachGetOneMessage) {
  struct Outcome {
    std::string text;
    Duration waited{};
  };
  Outcome outcomes[2];
  auto receive = [this](Outcome* out) {
    const Stopwatch sw;
    auto got = server_->ReceiveMessage(seconds(10));
    out->waited = sw.Elapsed();
    out->text = got.ok() ? got->ToString() : got.status().ToString();
  };
  cool::Thread first([&] { receive(&outcomes[0]); });
  cool::Thread second([&] { receive(&outcomes[1]); });
  std::this_thread::sleep_for(milliseconds(50));  // both are waiting
  ASSERT_TRUE(client_->SendMessage(Msg("one")).ok());
  ASSERT_TRUE(client_->SendMessage(Msg("two")).ok());
  first.join();
  second.join();

  std::vector<std::string> texts = {outcomes[0].text, outcomes[1].text};
  std::sort(texts.begin(), texts.end());
  EXPECT_EQ(texts, (std::vector<std::string>{"one", "two"}));
  for (const Outcome& o : outcomes) {
    EXPECT_LT(o.waited, seconds(2)) << o.text;  // the deadline is 10 s
  }
}

TEST_P(BlockingReceiveTest, CloseEndsAWaitingReceiver) {
  Result<ByteBuffer> got(Status(InternalError("unset")));
  const Stopwatch sw;
  cool::Thread receiver([&] { got = server_->ReceiveMessage(seconds(10)); });
  std::this_thread::sleep_for(milliseconds(20));
  server_->Close();
  receiver.join();
  EXPECT_EQ(got.status().code(), ErrorCode::kUnavailable);
  EXPECT_LT(sw.Elapsed(), seconds(2));
}

INSTANTIATE_TEST_SUITE_P(Transports, BlockingReceiveTest,
                         ::testing::Values(Kind::kTcp, Kind::kIpc,
                                           Kind::kDacapo),
                         [](const ::testing::TestParamInfo<Kind>& info) {
                           switch (info.param) {
                             case Kind::kTcp:
                               return "tcp";
                             case Kind::kIpc:
                               return "ipc";
                             case Kind::kDacapo:
                               return "dacapo";
                           }
                           return "unknown";
                         });

}  // namespace
}  // namespace cool::transport
