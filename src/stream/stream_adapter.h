// The stream object adapter (paper §7: "A stream object adapter supporting
// the generated stream stubs and skeletons will be developed"), as a
// runtime building block:
//
//  * StreamService — a servant exporting the flow-control interface
//      open_flow(FlowSpec)  -> flow_id, data endpoint     (NACK -> NO_RESOURCES)
//      flow_stats(flow_id)  -> FlowStats                  (receiver-side)
//      close_flow(flow_id)  -> void
//    Flow QoS is negotiated bilaterally against the service's capability
//    and admitted against an optional resource manager; accepted flows get
//    their own Da CaPo acceptor and a measuring StreamSink. A flow costs
//    reactor registrations, no thread: a one-shot accept registration,
//    then the sink's. close_flow runs as a dispatch upcall, so it only
//    hands the flow's teardown to those registrations and never waits;
//    the service's destructor waits until every flow is gone.
//
//  * FlowConnection — the client side: calls open_flow through an ordinary
//    ORB stub (so the control path benefits from all of the paper's
//    machinery, including per-invocation QoS), configures a Da CaPo graph
//    for the flow QoS, connects the data session and drives a paced
//    StreamSource.
#pragma once

#include <map>
#include <memory>

#include "common/mutex.h"
#include "dacapo/config_manager.h"
#include "dacapo/resource_manager.h"
#include "orb/stub.h"
#include "stream/flow.h"

namespace cool::stream {

class StreamService : public orb::Servant {
 public:
  // `flow_capability` bounds what any single flow may request (frame rate
  // and QoS translate into throughput etc.). `resources`, when given,
  // additionally enforces the aggregate budget across flows.
  StreamService(sim::Network* net, std::string host,
                dacapo::NetworkEstimate estimate,
                qos::Capability flow_capability,
                dacapo::ResourceManager* resources = nullptr);
  ~StreamService() override;

  std::string_view repository_id() const override {
    return "IDL:cool/StreamService:1.0";
  }

  orb::DispatchOutcome Dispatch(std::string_view operation,
                                cdr::Decoder& args,
                                cdr::Encoder& out) override;

  std::size_t active_flows() const;
  // Receiver-side stats, also reachable remotely via "flow_stats".
  Result<FlowStats> StatsFor(corba::ULong flow_id) const;

 private:
  // Shared by the service's table and the registrations still working
  // for the flow; the last owner destroys it, and the service counts it.
  struct Flow {
    explicit Flow(StreamService* owner);
    ~Flow();

    StreamService* const service;
    FlowSpec spec;
    std::unique_ptr<dacapo::Acceptor> acceptor;
    // One-shot accept on sim::Reactor::Default(); it unregisters itself
    // after its one accept (or failure), releasing its hold on the flow.
    std::uint64_t accept_reg = 0;
    mutable Mutex mu{LockRank::kStream, "stream::StreamService::Flow::mu"};
    std::unique_ptr<StreamSink> sink
        COOL_GUARDED_BY(mu);  // set once the peer connects
    bool closed COOL_GUARDED_BY(mu) = false;
    dacapo::ResourceManager::Reservation reservation;
  };

  orb::DispatchOutcome OpenFlow(cdr::Decoder& args, cdr::Encoder& out);
  orb::DispatchOutcome FlowStatsOp(cdr::Decoder& args, cdr::Encoder& out);
  orb::DispatchOutcome CloseFlow(cdr::Decoder& args, cdr::Encoder& out);
  // The accept registration's callback.
  static void AcceptPeer(const std::shared_ptr<Flow>& flow);
  // Closes a flow without waiting: the sink stops from its own
  // registration and a pending accept ends when the acceptor closes.
  static void Retire(const std::shared_ptr<Flow>& flow);

  sim::Network* net_;
  std::string host_;
  dacapo::NetworkEstimate estimate_;
  qos::Capability flow_capability_;
  dacapo::ResourceManager* resources_;

  mutable Mutex mu_{LockRank::kStream, "stream::StreamService::mu_"};
  corba::ULong next_flow_id_ COOL_GUARDED_BY(mu_) = 1;
  std::map<corba::ULong, std::shared_ptr<Flow>> flows_ COOL_GUARDED_BY(mu_);
  // Flows not yet destroyed (open or retiring); the destructor waits on
  // `flows_gone_` for zero, since their sessions hold network ports.
  std::size_t live_flows_ COOL_GUARDED_BY(mu_) = 0;
  CondVar flows_gone_;
};

// Client-side handle of one open flow.
class FlowConnection {
 public:
  // Negotiates `spec` with the remote StreamService (through `control`),
  // builds the QoS-configured data session and a paced source. The source
  // is created but not started.
  static Result<std::unique_ptr<FlowConnection>> Open(
      orb::Stub* control, sim::Network* net, const std::string& local_host,
      const FlowSpec& spec, const dacapo::NetworkEstimate& estimate);

  ~FlowConnection();

  FlowConnection(const FlowConnection&) = delete;
  FlowConnection& operator=(const FlowConnection&) = delete;

  StreamSource& source() { return *source_; }
  corba::ULong flow_id() const noexcept { return flow_id_; }
  dacapo::ModuleGraphSpec data_graph() const { return session_->graph(); }

  // Receiver-side statistics fetched through the control interface.
  Result<FlowStats> RemoteStats();

  // Stops the source and releases the server-side flow.
  Status Close();

 private:
  FlowConnection(orb::Stub* control, corba::ULong flow_id,
                 std::unique_ptr<dacapo::Session> session, FlowSpec spec)
      : control_(control),
        flow_id_(flow_id),
        session_(std::move(session)),
        source_(std::make_unique<StreamSource>(session_.get(),
                                               std::move(spec))) {}

  orb::Stub* control_;
  corba::ULong flow_id_;
  std::unique_ptr<dacapo::Session> session_;
  std::unique_ptr<StreamSource> source_;
  bool closed_ = false;
};

}  // namespace cool::stream
