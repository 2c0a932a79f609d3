// Module-graph runtime: instantiates a configured chain of modules and
// drives it with one run-to-completion registration on the shared
// sim::Reactor::Default() (BESS-style bursts, DESIGN.md §12). Each
// callback pops a packet train from the single chain-level mailbox and
// walks it through every module — ProcessBurst at each hop, emissions
// flushed synchronously to the next hop — then drains the T module's
// socket and walks what arrived up the chain the same way, so a train
// crosses the whole chain with one queue round-trip instead of one per
// module (the paper's Fig. 6 design, then per-module batched
// mailboxes). A chain costs no thread: its sources are the T module's
// socket readiness, mailbox pushes and the modules' tick deadlines.
//
// Chain layout is top (application / layer A side) to bottom (transport /
// layer T side):   [0] A-module, [1..n-2] C-modules, [n-1] T-module.
// Degenerate chains (no A, or no T during unit tests) are supported via the
// up-sink and by injecting packets at either end.
//
// Application threads enter the chain through the thread-safe Inject
// methods, which push origin-tagged items into the chain mailbox and wake
// the registration. Callbacks never block: a module that cannot take more
// down-data (ARQ window, rate limit, a full stream window) reports
// !ReadyForDown and the train stalls until one of those sources fires.
#pragma once

#include <atomic>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "dacapo/module.h"

namespace cool::dacapo {

class ModuleChain {
 public:
  using UpSink = std::function<void(PacketPtr)>;
  using ControlSink = std::function<void(ControlMsg)>;

  ModuleChain(std::string name, std::vector<std::unique_ptr<Module>> modules,
              std::shared_ptr<PacketArena> arena,
              std::size_t burst_size = PacketBatch::kCapacity);
  ~ModuleChain();

  ModuleChain(const ModuleChain&) = delete;
  ModuleChain& operator=(const ModuleChain&) = delete;

  // Receives packets the *top* module forwards up (unset: dropped + warn).
  void SetUpSink(UpSink sink) { up_sink_ = std::move(sink); }
  // Receives control messages the top module sends up (errors, notifies).
  void SetControlSink(ControlSink sink) { control_sink_ = std::move(sink); }

  // Starts the modules (OnStart, top to bottom, on the caller's thread)
  // and registers the chain on sim::Reactor::Default(). An OnStart
  // failure stops the modules already started and is returned. A non-zero
  // `colocate_with` puts the registration on the worker of that reactor
  // id (see sim::Reactor::Add).
  Status Start(std::uint64_t colocate_with = 0);

  // Closes the mailbox, unregisters (a barrier against a running
  // callback; none is needed on the owning worker) and stops the modules.
  // Idempotent.
  void Stop();

  bool started() const noexcept { return started_.load(); }

  // Application-side injection: hands a packet to the top module as
  // down-travelling data. Blocks on backpressure; false once stopped.
  bool InjectDown(PacketPtr pkt);
  // Non-blocking InjectDown: kResourceExhausted, leaving `pkt` with the
  // caller, while the down queue is full; kUnavailable once stopped.
  Status TryInjectDown(PacketPtr& pkt);
  // Train variant: the whole batch enters under one mailbox acquisition
  // and crosses the chain as one burst. Empties `pkts` either way.
  bool InjectDownBatch(std::vector<PacketPtr>& pkts);

  // Transport-side injection: hands a packet to the bottom module as
  // up-travelling data (used by tests and callback-driven transports).
  void InjectUp(PacketPtr pkt);
  void InjectControlUp(ControlMsg msg);
  // Sends a control message down the chain starting at the top module.
  void InjectControlDown(ControlMsg msg);

  PacketArena& arena() noexcept { return *arena_; }
  std::shared_ptr<PacketArena> arena_ptr() const { return arena_; }

  std::size_t size() const noexcept { return modules_.size(); }
  Module& module(std::size_t i) { return *modules_[i]; }
  const std::string& name() const noexcept { return name_; }
  std::size_t burst_size() const noexcept { return burst_size_; }

  // Monitoring (paper Fig. 5 management): one "name{counters}" line per
  // module, top to bottom. Reads only atomic module counters.
  std::vector<std::string> DescribeModules() const;

 private:
  // The chain's ModulePort: buffers a module's emissions and
  // flushes them *synchronously* into the neighbouring walk (recursion),
  // so a burst runs to completion — down-emissions reach the wire, and the
  // packets they release return to the arena, while the emitter is still
  // on the stack. Constructed on the stack around each ProcessBurst /
  // HandleControl / OnTick / PollReceive / OnStart / OnStop call.
  class BurstPort : public ModulePort {
   public:
    BurstPort(ModuleChain* chain, std::size_t index)
        : chain_(chain), index_(index) {}
    ~BurstPort() override { Flush(); }

    void ForwardUp(PacketPtr pkt) override;
    void ForwardDown(PacketPtr pkt) override;
    void ForwardUpBatch(std::vector<PacketPtr>& pkts) override;
    void ForwardDownBatch(std::vector<PacketPtr>& pkts) override;
    void ControlUp(ControlMsg msg) override;
    void ControlDown(ControlMsg msg) override;
    PacketArena& arena() override { return chain_->arena(); }
    void WaitArena(Duration d) override;
    std::string_view channel_name() const override { return chain_->name_; }

    void Flush();

   private:
    void FlushDown();
    void FlushUp();

    ModuleChain* chain_;
    std::size_t index_;
    std::vector<PacketPtr> down_;
    std::vector<PacketPtr> up_;
  };

  // The registration's callback: one run-to-completion pass over every
  // source (see file comment).
  void RunOnce();

  // Dispatches one popped mailbox train: consecutive same-(direction,
  // origin) data items form one run that enters the chain as one burst.
  void DispatchPopped(std::vector<Mailbox::PopResult>& popped,
                      std::vector<PacketPtr>& run);

  // Walks a train through the chain starting at `index` (the module that
  // processes it next). Inside the callback (or before Start) only.
  void WalkDown(std::size_t index, std::vector<PacketPtr>& pkts);
  void WalkUp(std::size_t index, std::vector<PacketPtr>& pkts);
  void WalkControl(Direction dir, std::size_t index, ControlMsg msg);
  void RouteControlUpFrom(std::size_t index, ControlMsg msg);

  // Re-feeds stalled down-packets to modules that became ready again.
  void DrainStalls();
  bool StallsEmpty() const;
  // Runs due OnTicks and arms the registration for the next one.
  void ServiceTicks();
  // Lets every module drain its transport (PollReceive); true when one
  // stopped with input still deliverable.
  bool PollReceive();
  void DeliverUpSink(PacketPtr pkt);

  // Services up/control traffic, the T socket and stalls while a module
  // waits for arena space mid-burst (BurstPort::WaitArena).
  void PumpWhileWaiting();

  const std::string name_;
  std::shared_ptr<PacketArena> arena_;
  std::vector<std::unique_ptr<Module>> modules_;
  const std::size_t burst_size_;
  Mailbox mailbox_;
  // Reactor id of the chain's registration (0 until Start).
  std::atomic<std::uint64_t> reg_id_{0};

  // Callback state (run-to-completion, so no locks): per-module stash of
  // down-packets the module was not ready for. While any stall is
  // non-empty no new down-data is popped, so stalled packets stay FIFO
  // ahead of the mailbox.
  std::vector<std::deque<PacketPtr>> stall_;
  std::vector<TimePoint> last_tick_;
  std::vector<char> walking_;  // re-entrancy guard per module
  std::vector<Mailbox::PopResult> popped_;  // PopBatch scratch
  std::vector<PacketPtr> run_;              // DispatchPopped scratch
  TimePoint armed_tick_{};  // due time of the pending tick wakeup
  bool polling_ = false;    // PollReceive re-entrancy guard

  UpSink up_sink_;
  ControlSink control_sink_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopped_{false};
};

}  // namespace cool::dacapo
