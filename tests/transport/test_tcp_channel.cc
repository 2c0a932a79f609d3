#include "transport/tcp_channel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>

#include "common/blocking_queue.h"
#include "common/thread.h"

namespace cool::transport {
namespace {

sim::LinkProperties QuickLink() {
  sim::LinkProperties link;
  link.bandwidth_bps = 0;
  link.latency = microseconds(50);
  return link;
}

std::vector<std::uint8_t> Msg(std::string_view s) {
  return {s.begin(), s.end()};
}

struct Rig {
  Rig() : net(QuickLink()), server_mgr(&net, {"server", 7000}) {
    EXPECT_TRUE(server_mgr.Listen().ok());
  }

  std::pair<std::unique_ptr<ComChannel>, std::unique_ptr<ComChannel>>
  Establish() {
    Result<std::unique_ptr<ComChannel>> server_side(
        Status(InternalError("unset")));
    cool::Thread accept([&] { server_side = server_mgr.AcceptChannel(); });
    TcpComManager client_mgr(&net, {"client", 7000});
    auto client_side = client_mgr.OpenChannel({"server", 7000}, {});
    accept.join();
    EXPECT_TRUE(client_side.ok());
    EXPECT_TRUE(server_side.ok());
    return {std::move(client_side).value(), std::move(server_side).value()};
  }

  sim::Network net;
  TcpComManager server_mgr;
};

TEST(TcpBufferTest, ReassemblesAcrossArbitrarySplits) {
  TcpBuffer buf;
  // Message: len=5 "hello", delivered in three fragments.
  const std::vector<std::uint8_t> wire = {5, 0, 0, 0, 'h', 'e', 'l', 'l', 'o'};
  buf.Append({wire.data(), 2});
  auto m = buf.NextMessage();
  ASSERT_TRUE(m.ok());
  EXPECT_FALSE(m->has_value());
  buf.Append({wire.data() + 2, 5});
  m = buf.NextMessage();
  ASSERT_TRUE(m.ok());
  EXPECT_FALSE(m->has_value());
  buf.Append({wire.data() + 7, 2});
  m = buf.NextMessage();
  ASSERT_TRUE(m.ok());
  ASSERT_TRUE(m->has_value());
  EXPECT_EQ((*m)->ToString(), "hello");
}

TEST(TcpBufferTest, MultipleMessagesInOneChunk) {
  TcpBuffer buf;
  std::vector<std::uint8_t> wire = {1, 0, 0, 0, 'a', 2, 0, 0, 0, 'b', 'c'};
  buf.Append(wire);
  auto m1 = buf.NextMessage();
  ASSERT_TRUE(m1.ok() && m1->has_value());
  EXPECT_EQ((*m1)->ToString(), "a");
  auto m2 = buf.NextMessage();
  ASSERT_TRUE(m2.ok() && m2->has_value());
  EXPECT_EQ((*m2)->ToString(), "bc");
  EXPECT_EQ(buf.buffered_bytes(), 0u);
}

TEST(TcpBufferTest, ZeroLengthMessageAllowed) {
  TcpBuffer buf;
  buf.Append(std::array<std::uint8_t, 4>{0, 0, 0, 0});
  auto m = buf.NextMessage();
  ASSERT_TRUE(m.ok());
  ASSERT_TRUE(m->has_value());
  EXPECT_TRUE((*m)->empty());
}

TEST(TcpBufferTest, ImplausibleLengthRejected) {
  TcpBuffer buf;
  buf.Append(std::array<std::uint8_t, 4>{0xFF, 0xFF, 0xFF, 0x7F});
  EXPECT_EQ(buf.NextMessage().status().code(), ErrorCode::kProtocolError);
}

TEST(TcpBufferTest, LazyLeaseAndReleaseWhenDrained) {
  TcpBuffer buf;
  // A fresh buffer holds no backing store: 100k parked connections must
  // cost zero receive-buffer bytes.
  EXPECT_TRUE(buf.idle());
  EXPECT_EQ(buf.buffered_bytes(), 0u);
  // ReleaseIfDrained on an idle buffer is a no-op, not a crash.
  buf.ReleaseIfDrained();
  EXPECT_TRUE(buf.idle());

  // First octet leases the store...
  const std::vector<std::uint8_t> wire = {3, 0, 0, 0, 'a', 'b', 'c'};
  buf.Append({wire.data(), 4});
  EXPECT_FALSE(buf.idle());
  // ...and an unfinished message pins the lease through a drain attempt:
  // the remaining prefix octets must survive for the next Append.
  buf.ReleaseIfDrained();
  EXPECT_FALSE(buf.idle());

  buf.Append({wire.data() + 4, 3});
  auto m = buf.NextMessage();
  ASSERT_TRUE(m.ok());
  ASSERT_TRUE(m->has_value());
  EXPECT_EQ((*m)->size(), 3u);
  EXPECT_EQ(buf.buffered_bytes(), 0u);

  // Fully consumed: the drain hook returns the store to the pool and the
  // connection is back to costing nothing.
  buf.ReleaseIfDrained();
  EXPECT_TRUE(buf.idle());

  // The lease comes back transparently for the next burst.
  buf.Append(wire);
  m = buf.NextMessage();
  ASSERT_TRUE(m.ok());
  ASSERT_TRUE(m->has_value());
  EXPECT_EQ((*m)->size(), 3u);
}

TEST(TcpChannelTest, MessageRoundTrip) {
  Rig rig;
  auto [client, server] = rig.Establish();
  ASSERT_TRUE(client->SendMessage(Msg("ping")).ok());
  auto got = server->ReceiveMessage(seconds(2));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->ToString(), "ping");
  ASSERT_TRUE(server->SendMessage(Msg("pong")).ok());
  auto back = client->ReceiveMessage(seconds(2));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->ToString(), "pong");
}

TEST(TcpChannelTest, CallIsSendPlusReceive) {
  Rig rig;
  auto [client, server] = rig.Establish();
  cool::Thread responder([&s = server] {
    auto req = s->ReceiveMessage(seconds(2));
    ASSERT_TRUE(req.ok());
    ASSERT_TRUE(s->Reply(Msg("re:" + req->ToString())).ok());
  });
  auto reply = client->Call(Msg("question"));
  responder.join();
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->ToString(), "re:question");
}

TEST(TcpChannelTest, DeferThenPoll) {
  Rig rig;
  auto [client, server] = rig.Establish();
  auto deferred = client->Defer(Msg("later"));
  ASSERT_TRUE(deferred.ok());

  // Second concurrent Defer on the same channel is refused.
  EXPECT_EQ(client->Defer(Msg("again")).status().code(),
            ErrorCode::kFailedPrecondition);

  auto req = server->ReceiveMessage(seconds(2));
  ASSERT_TRUE(req.ok());
  ASSERT_TRUE(server->Reply(Msg("answer")).ok());

  auto reply = client->PollDeferred(*deferred);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->ToString(), "answer");

  // Slot is free again.
  EXPECT_TRUE(client->Defer(Msg("next")).ok());
}

TEST(TcpChannelTest, CancelDeferred) {
  Rig rig;
  auto [client, server] = rig.Establish();
  auto deferred = client->Defer(Msg("doomed"));
  ASSERT_TRUE(deferred.ok());
  ASSERT_TRUE(client->Cancel(*deferred).ok());
  EXPECT_EQ(client->PollDeferred(*deferred).status().code(),
            ErrorCode::kCancelled);
}

TEST(TcpChannelTest, CancelWithoutDeferredFails) {
  Rig rig;
  auto [client, server] = rig.Establish();
  EXPECT_EQ(client->Cancel({1}).code(), ErrorCode::kFailedPrecondition);
}

TEST(TcpChannelTest, NotifyDeliversAsynchronously) {
  Rig rig;
  auto [client, server] = rig.Establish();
  BlockingQueue<std::string> results;
  ASSERT_TRUE(client
                  ->Notify(Msg("async-req"),
                           [&](Result<ByteBuffer> reply) {
                             results.Push(reply.ok() ? reply->ToString()
                                                     : reply.status()
                                                           .ToString());
                           })
                  .ok());
  auto req = server->ReceiveMessage(seconds(2));
  ASSERT_TRUE(req.ok());
  EXPECT_EQ(req->ToString(), "async-req");
  ASSERT_TRUE(server->Reply(Msg("async-reply")).ok());
  auto got = results.PopFor(seconds(2));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, "async-reply");
}

TEST(TcpChannelTest, NotifyFailsOnceWhenTheChannelCloses) {
  Rig rig;
  auto [client, server] = rig.Establish();
  std::atomic<int> runs{0};
  BlockingQueue<ErrorCode> codes;
  ASSERT_TRUE(client
                  ->Notify(Msg("never answered"),
                           [&](Result<ByteBuffer> reply) {
                             ++runs;
                             codes.Push(reply.status().code());
                           })
                  .ok());
  client->Close();
  const auto code = codes.PopFor(seconds(1));
  ASSERT_TRUE(code.has_value());
  EXPECT_EQ(*code, ErrorCode::kUnavailable);
  std::this_thread::sleep_for(milliseconds(20));
  EXPECT_EQ(runs.load(), 1);
}

TEST(TcpChannelTest, NotifySharesDefersOneOutstandingRule) {
  Rig rig;
  auto [client, server] = rig.Establish();
  std::atomic<int> runs{0};
  BlockingQueue<std::string> results;
  auto callback = [&](Result<ByteBuffer> reply) {
    ++runs;
    results.Push(reply.ok() ? reply->ToString() : reply.status().ToString());
  };
  ASSERT_TRUE(client->Notify(Msg("first"), callback).ok());
  EXPECT_EQ(client->Notify(Msg("second"), callback).status().code(),
            ErrorCode::kFailedPrecondition);
  EXPECT_EQ(client->Defer(Msg("third")).status().code(),
            ErrorCode::kFailedPrecondition);

  auto req = server->ReceiveMessage(seconds(2));
  ASSERT_TRUE(req.ok());
  EXPECT_EQ(req->ToString(), "first");
  ASSERT_TRUE(server->Reply(Msg("answer")).ok());
  const auto got = results.PopFor(seconds(1));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, "answer");
  EXPECT_EQ(runs.load(), 1);
  // The conversation is over: the channel takes the next one.
  EXPECT_TRUE(client->Defer(Msg("next")).ok());
}

TEST(TcpChannelTest, ReceiveTimesOut) {
  Rig rig;
  auto [client, server] = rig.Establish();
  EXPECT_EQ(client->ReceiveMessage(milliseconds(50)).status().code(),
            ErrorCode::kDeadlineExceeded);
}

TEST(TcpChannelTest, PeerCloseSurfacesAsUnavailable) {
  Rig rig;
  auto [client, server] = rig.Establish();
  server->Close();
  EXPECT_EQ(client->ReceiveMessage(seconds(2)).status().code(),
            ErrorCode::kUnavailable);
  EXPECT_FALSE(client->SendMessage(Msg("x")).ok());
}

TEST(TcpChannelTest, QosSpecRefusedByPlainTcp) {
  // Paper §4.3: TCP does not implement setQoSParameter.
  Rig rig;
  auto [client, server] = rig.Establish();
  auto spec = qos::QoSSpec::FromParameters(
      {qos::RequireThroughputKbps(1000, 500)});
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(client->SetQoSParameter(*spec).code(), ErrorCode::kUnsupported);
  // Empty spec (best effort) is fine.
  EXPECT_TRUE(client->SetQoSParameter(qos::QoSSpec{}).ok());
}

TEST(TcpChannelTest, QosOpenRefused) {
  Rig rig;
  TcpComManager client_mgr(&rig.net, {"client", 7000});
  auto spec = qos::QoSSpec::FromParameters(
      {qos::RequireLatencyMicros(100, 1000)});
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(client_mgr.OpenChannel({"server", 7000}, *spec).status().code(),
            ErrorCode::kUnsupported);
}

TEST(TcpChannelTest, CapabilityIsBestEffortOnly) {
  Rig rig;
  auto [client, server] = rig.Establish();
  const qos::Capability cap = client->TransportCapability();
  EXPECT_FALSE(cap.Has(qos::ParamType::kThroughputKbps));
  EXPECT_FALSE(cap.Has(qos::ParamType::kReliability));
}

TEST(TcpChannelTest, LargeMessages) {
  Rig rig;
  auto [client, server] = rig.Establish();
  std::vector<std::uint8_t> big(512 * 1024);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::uint8_t>(i * 7);
  }
  ASSERT_TRUE(client->SendMessage(big).ok());
  auto got = server->ReceiveMessage(seconds(5));
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got->size(), big.size());
  EXPECT_EQ(0, std::memcmp(got->data(), big.data(), big.size()));
}

}  // namespace
}  // namespace cool::transport
