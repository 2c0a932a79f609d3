// GIOP client/server engines over a real transport channel: invocation
// modes, reply matching, version gating (backwards compatibility with
// unmodified GIOP 1.0 peers), cancel semantics.

#include "giop/engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <thread>

#include "common/blocking_queue.h"
#include "common/clock.h"
#include "common/thread.h"
#include "sim/reactor.h"
#include "transport/tcp_channel.h"

namespace cool::giop {
namespace {

sim::LinkProperties QuickLink() {
  sim::LinkProperties link;
  link.bandwidth_bps = 0;
  link.latency = microseconds(50);
  return link;
}

corba::OctetSeq Key(std::string_view s) { return {s.begin(), s.end()}; }

// Echo dispatcher: returns the request's operation name and its one long
// argument + 1.
GiopServer::DispatchResult EchoDispatch(const RequestHeader& header,
                                        cdr::Decoder& args) {
  GiopServer::DispatchResult result;
  cdr::Encoder body(cdr::NativeOrder(), 0);
  body.PutString(header.operation);
  auto value = args.GetLong();
  body.PutLong(value.ok() ? *value + 1 : -1);
  body.PutULong(static_cast<corba::ULong>(header.qos_params.size()));
  result.body = std::move(body).TakeBuffer();
  return result;
}

struct Rig {
  Rig() : net(QuickLink()), server_mgr(&net, {"server", 7300}) {
    EXPECT_TRUE(server_mgr.Listen().ok());
    Result<std::unique_ptr<transport::ComChannel>> accepted(
        Status(InternalError("unset")));
    cool::Thread accept([&] { accepted = server_mgr.AcceptChannel(); });
    transport::TcpComManager client_mgr(&net, {"client", 7300});
    auto opened = client_mgr.OpenChannel({"server", 7300}, {});
    accept.join();
    EXPECT_TRUE(opened.ok());
    EXPECT_TRUE(accepted.ok());
    client_channel = std::move(opened).value();
    server_channel = std::move(accepted).value();
  }

  // Serves exactly `n` incoming messages on a background thread.
  cool::Thread Serve(GiopServer& server, int n) {
    return cool::Thread([&server, n] {
      for (int i = 0; i < n; ++i) {
        const Status s = server.ServeOne(seconds(5));
        if (!s.ok() && s.code() != ErrorCode::kProtocolError) return;
      }
    });
  }

  sim::Network net;
  transport::TcpComManager server_mgr;
  std::unique_ptr<transport::ComChannel> client_channel;
  std::unique_ptr<transport::ComChannel> server_channel;
};

TEST(GiopEngineTest, SynchronousInvoke) {
  Rig rig;
  GiopClient client(rig.client_channel.get(), {});
  GiopServer server(rig.server_channel.get(), EchoDispatch,
                    GiopServer::Options{});
  auto server_thread = rig.Serve(server, 1);

  cdr::Encoder args = client.MakeArgsEncoder();
  args.PutLong(41);
  auto reply = client.Invoke(Key("obj"), "ping", args.buffer().view(), {});
  server_thread.join();
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(reply->header.reply_status, ReplyStatus::kNoException);

  cdr::Decoder dec = reply->MakeResultsDecoder();
  EXPECT_EQ(*dec.GetString(), "ping");
  EXPECT_EQ(*dec.GetLong(), 42);
  EXPECT_EQ(*dec.GetULong(), 0u);  // no qos params seen by the server
  EXPECT_EQ(server.requests_served(), 1u);
}

TEST(GiopEngineTest, QosParamsReachTheServerInVersion99) {
  Rig rig;
  GiopClient client(rig.client_channel.get(), {});
  GiopServer server(rig.server_channel.get(), EchoDispatch,
                    GiopServer::Options{});
  auto server_thread = rig.Serve(server, 1);

  cdr::Encoder args = client.MakeArgsEncoder();
  args.PutLong(1);
  const std::vector<qos::QoSParameter> qos = {
      qos::RequireThroughputKbps(1000, 100), qos::RequireReliability(2)};
  auto reply = client.Invoke(Key("obj"), "op", args.buffer().view(), qos);
  server_thread.join();
  ASSERT_TRUE(reply.ok());
  cdr::Decoder dec = reply->MakeResultsDecoder();
  (void)dec.GetString();
  (void)dec.GetLong();
  EXPECT_EQ(*dec.GetULong(), 2u);  // server saw both qos params
}

TEST(GiopEngineTest, UnmodifiedServerRejects99WithMessageError) {
  // Paper backwards compatibility: a server without the extension answers
  // a 9.9 Request with MessageError; the client surfaces a protocol error.
  Rig rig;
  GiopClient client(rig.client_channel.get(), {});
  GiopServer::Options legacy;
  legacy.accept_qos_extension = false;
  GiopServer server(rig.server_channel.get(), EchoDispatch, legacy);
  auto server_thread = rig.Serve(server, 1);

  auto reply = client.Invoke(Key("obj"), "op", {},
                             {qos::RequireReliability(1)});
  server_thread.join();
  EXPECT_EQ(reply.status().code(), ErrorCode::kProtocolError);
  EXPECT_EQ(server.requests_served(), 0u);
}

TEST(GiopEngineTest, LegacyServerStillServes10AfterRejecting99) {
  Rig rig;
  GiopClient client(rig.client_channel.get(), {});
  GiopServer::Options legacy;
  legacy.accept_qos_extension = false;
  GiopServer server(rig.server_channel.get(), EchoDispatch, legacy);
  auto server_thread = rig.Serve(server, 2);

  auto rejected = client.Invoke(Key("obj"), "op", {},
                                {qos::RequireReliability(1)});
  EXPECT_FALSE(rejected.ok());
  // Plain 1.0 request on the same connection still succeeds.
  cdr::Encoder args = client.MakeArgsEncoder();
  args.PutLong(1);
  auto accepted = client.Invoke(Key("obj"), "op", args.buffer().view(), {});
  server_thread.join();
  EXPECT_TRUE(accepted.ok()) << accepted.status();
}

TEST(GiopEngineTest, ClientWithoutExtensionNeverSends99) {
  Rig rig;
  GiopClient::Options opts;
  opts.use_qos_extension = false;
  GiopClient client(rig.client_channel.get(), opts);
  GiopServer server(
      rig.server_channel.get(),
      [](const RequestHeader& header, cdr::Decoder&) {
        GiopServer::DispatchResult r;
        cdr::Encoder body(cdr::NativeOrder(), 0);
        body.PutULong(static_cast<corba::ULong>(header.qos_params.size()));
        r.body = std::move(body).TakeBuffer();
        return r;
      },
      GiopServer::Options{});
  auto server_thread = rig.Serve(server, 1);

  // QoS params supplied but extension off -> silently stripped (pure 1.0).
  auto reply =
      client.Invoke(Key("obj"), "op", {}, {qos::RequireReliability(1)});
  server_thread.join();
  ASSERT_TRUE(reply.ok());
  cdr::Decoder dec = reply->MakeResultsDecoder();
  EXPECT_EQ(*dec.GetULong(), 0u);
}

TEST(GiopEngineTest, OnewayDoesNotWaitForReply) {
  Rig rig;
  GiopClient client(rig.client_channel.get(), {});
  std::atomic<int> served{0};
  GiopServer server(
      rig.server_channel.get(),
      [&](const RequestHeader& header, cdr::Decoder&) {
        ++served;
        EXPECT_FALSE(header.response_expected);
        return GiopServer::DispatchResult{};
      },
      GiopServer::Options{});
  auto server_thread = rig.Serve(server, 1);
  ASSERT_TRUE(client.InvokeOneway(Key("obj"), "notify", {}, {}).ok());
  server_thread.join();  // inline dispatch: the upcall ran on that thread
  EXPECT_EQ(served.load(), 1);
}

TEST(GiopEngineTest, DeferredInvokeAndPoll) {
  Rig rig;
  GiopClient client(rig.client_channel.get(), {});
  GiopServer server(rig.server_channel.get(), EchoDispatch,
                    GiopServer::Options{});
  auto server_thread = rig.Serve(server, 1);

  cdr::Encoder args = client.MakeArgsEncoder();
  args.PutLong(10);
  auto id = client.InvokeDeferred(Key("obj"), "later", args.buffer().view(),
                                  {});
  ASSERT_TRUE(id.ok());
  auto reply = client.PollReply(*id);
  server_thread.join();
  ASSERT_TRUE(reply.ok());
  cdr::Decoder dec = reply->MakeResultsDecoder();
  EXPECT_EQ(*dec.GetString(), "later");
  EXPECT_EQ(*dec.GetLong(), 11);
}

TEST(GiopEngineTest, CancelledReplyIsDiscarded) {
  Rig rig;
  GiopClient client(rig.client_channel.get(), {});
  GiopServer server(rig.server_channel.get(), EchoDispatch,
                    GiopServer::Options{});
  // Server will handle the deferred request AND the cancel AND the next
  // invoke (cancel may arrive after the reply was already sent).
  auto server_thread = rig.Serve(server, 3);

  cdr::Encoder args = client.MakeArgsEncoder();
  args.PutLong(1);
  auto id = client.InvokeDeferred(Key("obj"), "doomed", args.buffer().view(),
                                  {});
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(client.Cancel(*id).ok());

  // A later invocation must not be confused by the stale reply.
  cdr::Encoder args2 = client.MakeArgsEncoder();
  args2.PutLong(100);
  auto reply = client.Invoke(Key("obj"), "fresh", args2.buffer().view(), {});
  ASSERT_TRUE(reply.ok()) << reply.status();
  cdr::Decoder dec = reply->MakeResultsDecoder();
  EXPECT_EQ(*dec.GetString(), "fresh");
  EXPECT_EQ(*dec.GetLong(), 101);

  rig.client_channel->Close();
  server_thread.join();
}

TEST(GiopEngineTest, LocateRequestUsesLocator) {
  Rig rig;
  GiopClient client(rig.client_channel.get(), {});
  GiopServer server(rig.server_channel.get(), EchoDispatch,
                    GiopServer::Options{});
  server.SetLocator(
      [](const corba::OctetSeq& key) { return key == Key("exists"); });
  auto server_thread = rig.Serve(server, 2);

  auto here = client.Locate(Key("exists"));
  ASSERT_TRUE(here.ok());
  EXPECT_EQ(*here, LocateStatus::kObjectHere);
  auto gone = client.Locate(Key("missing"));
  server_thread.join();
  ASSERT_TRUE(gone.ok());
  EXPECT_EQ(*gone, LocateStatus::kUnknownObject);
}

TEST(GiopEngineTest, CloseConnectionEndsServeLoop) {
  Rig rig;
  GiopClient client(rig.client_channel.get(), {});
  GiopServer server(rig.server_channel.get(), EchoDispatch,
                    GiopServer::Options{});
  cool::Thread server_thread([&] {
    EXPECT_EQ(server.Serve().code(), ErrorCode::kCancelled);
  });
  ASSERT_TRUE(client.SendClose().ok());
  server_thread.join();
}

TEST(GiopEngineTest, GarbageTriggersMessageErrorButConnectionSurvives) {
  Rig rig;
  GiopClient client(rig.client_channel.get(), {});
  GiopServer server(rig.server_channel.get(), EchoDispatch,
                    GiopServer::Options{});
  auto server_thread = rig.Serve(server, 2);

  // Raw garbage straight into the channel.
  const std::vector<std::uint8_t> junk = {'J', 'U', 'N', 'K', 0, 0,
                                          0,   0,   0,   0,   0, 0};
  ASSERT_TRUE(rig.client_channel->SendMessage(junk).ok());
  // The server answers MessageError; the engine-level receive on the
  // client side reports it as a protocol error on the next receive...
  auto err = rig.client_channel->ReceiveMessage(seconds(2));
  ASSERT_TRUE(err.ok());
  auto parsed = ParseMessage(err->view());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->header.message_type, MsgType::kMessageError);

  // ...and a well-formed request still goes through afterwards.
  cdr::Encoder args = client.MakeArgsEncoder();
  args.PutLong(5);
  auto reply = client.Invoke(Key("obj"), "op", args.buffer().view(), {});
  server_thread.join();
  EXPECT_TRUE(reply.ok()) << reply.status();
}

TEST(GiopEngineTest, RequestIdsIncrease) {
  Rig rig;
  GiopClient client(rig.client_channel.get(), {});
  GiopServer server(rig.server_channel.get(), EchoDispatch,
                    GiopServer::Options{});
  auto server_thread = rig.Serve(server, 3);
  for (int i = 0; i < 3; ++i) {
    cdr::Encoder args = client.MakeArgsEncoder();
    args.PutLong(i);
    ASSERT_TRUE(
        client.Invoke(Key("obj"), "op", args.buffer().view(), {}).ok());
  }
  server_thread.join();
  EXPECT_EQ(client.last_request_id(), 3u);
}

// The reactor-demux client on a caller-supplied reactor: replies arrive via
// a reactor callback, and teardown barriers the registration out.
TEST(GiopEngineTest, ReactorDemuxInvokeAndTeardown) {
  Rig rig;
  sim::Reactor reactor(2);
  GiopClient::Options copts;
  copts.reactor = &reactor;
  std::optional<GiopClient> client(std::in_place, rig.client_channel.get(),
                                   copts);
  GiopServer server(rig.server_channel.get(), EchoDispatch,
                    GiopServer::Options{});

  auto server_thread = rig.Serve(server, 2);
  for (int i = 0; i < 2; ++i) {
    cdr::Encoder args = client->MakeArgsEncoder();
    args.PutLong(41);
    auto reply =
        client->Invoke(Key("obj"), "ping", args.buffer().view(), {});
    ASSERT_TRUE(reply.ok()) << reply.status();
    EXPECT_EQ(reply->header.reply_status, ReplyStatus::kNoException);
    cdr::Decoder dec = reply->MakeResultsDecoder();
    EXPECT_EQ(*dec.GetString(), "ping");
    EXPECT_EQ(*dec.GetLong(), 42);
  }
  server_thread.join();

  Stopwatch timer;
  rig.client_channel->Close();
  client.reset();  // Remove() barrier, no thread to join
  EXPECT_LT(timer.Elapsed(), seconds(5));
}

// A channel with no non-blocking receive path (the ComChannel defaults for
// TryReceiveMessage/RegisterRx): nothing could ever deliver a reply, so the
// first call fails at once instead of timing out, and the engine stays
// broken.
class BlockingOnlyChannel : public transport::ComChannel {
 public:
  std::string_view protocol() const override { return "blocking-only"; }
  Status SendMessage(std::span<const std::uint8_t>) override {
    return Status::Ok();
  }
  Result<ByteBuffer> ReceiveMessage(Duration) override {
    return Status(DeadlineExceededError("never"));
  }
  void Close() override {}
};

TEST(GiopEngineTest, UnwatchableChannelFailsFastWithUnsupported) {
  BlockingOnlyChannel channel;
  GiopClient client(&channel, {});
  Stopwatch timer;
  auto reply = client.Invoke(Key("obj"), "op", {}, {}, seconds(10));
  EXPECT_LT(timer.Elapsed(), seconds(1));
  EXPECT_EQ(reply.status().code(), ErrorCode::kUnsupported);
  EXPECT_EQ(client.in_flight(), 0u);
  EXPECT_EQ(client.Locate(Key("obj")).status().code(),
            ErrorCode::kUnsupported);
}

// Counts continuation runs and queues each outcome's code.
struct ContinuationLog {
  GiopClient::Continuation Callback() {
    return [this](Result<GiopClient::Reply> reply) {
      ++runs;
      codes.Push(reply.ok() ? ErrorCode::kOk : reply.status().code());
    };
  }
  std::atomic<int> runs{0};
  BlockingQueue<ErrorCode> codes;
};

TEST(GiopEngineTest, AsyncContinuationTimesOutOnce) {
  Rig rig;
  ContinuationLog log;
  GiopClient client(rig.client_channel.get(), {});
  cdr::Encoder args = client.MakeArgsEncoder();
  args.PutLong(1);
  const TimePoint start = Now();
  ASSERT_TRUE(client
                  .InvokeAsync(Key("obj"), "late", args.buffer().view(), {},
                               log.Callback(), milliseconds(50))
                  .ok());
  const auto code = log.codes.PopFor(seconds(1));
  ASSERT_TRUE(code.has_value());
  EXPECT_EQ(*code, ErrorCode::kDeadlineExceeded);
  EXPECT_GE(Now() - start, milliseconds(50));
  EXPECT_EQ(client.in_flight(), 0u);

  // The Reply that comes after all is discarded, not delivered again.
  GiopServer server(rig.server_channel.get(), EchoDispatch,
                    GiopServer::Options{});
  auto server_thread = rig.Serve(server, 1);
  server_thread.join();
  std::this_thread::sleep_for(milliseconds(20));
  EXPECT_EQ(log.runs.load(), 1);
}

TEST(GiopEngineTest, AsyncContinuationCancelledOnce) {
  Rig rig;
  ContinuationLog log;
  GiopClient client(rig.client_channel.get(), {});
  cdr::Encoder args = client.MakeArgsEncoder();
  args.PutLong(1);
  auto id = client.InvokeAsync(Key("obj"), "doomed", args.buffer().view(), {},
                               log.Callback());
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(client.PollReply(*id).status().code(),
            ErrorCode::kFailedPrecondition);  // the continuation owns it
  ASSERT_TRUE(client.Cancel(*id).ok());
  const auto code = log.codes.PopFor(seconds(1));
  ASSERT_TRUE(code.has_value());
  EXPECT_EQ(*code, ErrorCode::kCancelled);
  std::this_thread::sleep_for(milliseconds(20));
  EXPECT_EQ(log.runs.load(), 1);
}

}  // namespace
}  // namespace cool::giop
