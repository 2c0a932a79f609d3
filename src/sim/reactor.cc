#include "sim/reactor.h"

#include <array>
#include <utility>

namespace cool::sim {

namespace {
// Worker identity of the calling thread; -1 outside every reactor.
thread_local int tl_worker_index = -1;
}  // namespace

Reactor::Reactor(unsigned workers) : Reactor(Options{.workers = workers}) {}

Reactor::Reactor(const Options& options) {
  const unsigned n =
      options.workers == 0 ? HardwareConcurrency() : options.workers;
  workers_.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    workers_.push_back(std::make_unique<Worker>());
    workers_.back()->index = i;
  }
  for (auto& w : workers_) {
    Worker* worker = w.get();
    worker->thread = Thread(
        [this, worker, pin = options.pin_workers](std::stop_token stop) {
          if (pin) PinThisThreadToCore(worker->index);
          WorkerLoop(*worker, stop);
        });
    worker->thread_id = worker->thread.get_id();
  }
}

Reactor::~Reactor() {
  for (auto& w : workers_) w->thread.request_stop();
  for (auto& w : workers_) w->waitset.Close();
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
}

Reactor& Reactor::Default() {
  // Leaky singleton: channels may signal their watchables during static
  // destruction, after a function-local Reactor would already be gone.
  static Reactor* shared = new Reactor();  // NEW_ALLOWLIST: leaky singleton
  return *shared;
}

int Reactor::CurrentWorkerIndex() noexcept { return tl_worker_index; }

void Reactor::WorkerLoop(Worker& w, std::stop_token stop) {
  tl_worker_index = static_cast<int>(w.index);
  // Burst harvest (the packet-train idiom on the event path): one wait-set
  // wakeup delivers up to 64 coalesced readiness events, amortizing the
  // wait/lock round trip across the whole train at high connection counts.
  std::array<sim::WaitSet::ReadyEvent, 64> events;
  while (!stop.stop_requested()) {
    const std::size_t n = w.waitset.Wait(events, seconds(60));
    if (stop.stop_requested()) return;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t id = events[i].token;
      std::shared_ptr<Registration> reg;
      {
        MutexLock lock(w.mu);
        const auto it = w.regs.find(id);
        if (it == w.regs.end()) continue;  // removed after signalling
        reg = it->second;
        w.running_id = id;
      }
      dispatches_.fetch_add(1, std::memory_order_relaxed);
      {
        // Registered callbacks run to completion on this shared worker:
        // mark the scope so unbounded blocking waits inside it are
        // reported by the deadlock detector (DESIGN.md §11).
        deadlock::ScopedContext ctx(deadlock::Context::kReactorCallback);
        reg->cb();
      }
      DrainRemovalWaiters(w);
    }
  }
}

void Reactor::DrainRemovalWaiters(Worker& w) {
  MutexLock lock(w.mu);
  w.running_id = 0;
  w.idle_cv.NotifyAll();
}

Result<std::uint64_t> Reactor::Add(const AttachFn& attach, Callback cb,
                                   std::uint64_t colocate_with) {
  const std::uint64_t id = AddManual(std::move(cb), colocate_with);
  Worker& w = WorkerFor(id);
  if (!attach(w.waitset, id)) {
    Remove(id);
    return Status(
        UnsupportedError("readiness source cannot be watched"));
  }
  return id;
}

std::uint64_t Reactor::AddManual(Callback cb, std::uint64_t colocate_with) {
  std::uint64_t id;
  if (colocate_with == 0) {
    id = next_id_.fetch_add(1, std::memory_order_relaxed);
  } else {
    // Reserve one id per worker: exactly one of the block maps onto the
    // worker that owns `colocate_with`.
    const std::uint64_t n = workers_.size();
    const std::uint64_t base = next_id_.fetch_add(n, std::memory_order_relaxed);
    id = base + (colocate_with % n + n - base % n) % n;
  }
  Worker& w = WorkerFor(id);
  {
    MutexLock lock(w.mu);
    w.regs.emplace(id, std::make_shared<Registration>(std::move(cb)));
  }
  w.waitset.Add(id);
  return id;
}

std::vector<std::uint64_t> Reactor::AddBatch(std::vector<Callback> cbs) {
  std::vector<std::uint64_t> ids(cbs.size(), 0);
  if (cbs.empty()) return ids;
  const std::uint64_t base =
      next_id_.fetch_add(cbs.size(), std::memory_order_relaxed);
  for (std::size_t i = 0; i < cbs.size(); ++i) ids[i] = base + i;
  // A contiguous id block deals round-robin across workers, so each
  // worker's map is locked once and takes ~train/workers inserts.
  const std::size_t n_workers = workers_.size();
  for (std::size_t w = 0; w < n_workers && w < cbs.size(); ++w) {
    Worker& worker = *workers_[(base + w) % n_workers];
    MutexLock lock(worker.mu);
    for (std::size_t i = w; i < cbs.size(); i += n_workers) {
      worker.regs.emplace(
          ids[i], std::make_shared<Registration>(std::move(cbs[i])));
    }
  }
  return ids;
}

bool Reactor::Attach(std::uint64_t id, const AttachFn& attach) {
  Worker& w = WorkerFor(id);
  w.waitset.Add(id);
  if (attach(w.waitset, id)) return true;
  Remove(id);
  return false;
}

void Reactor::Schedule(std::uint64_t id) {
  if (id == 0) return;
  WorkerFor(id).waitset.Post(id);
}

void Reactor::ScheduleAt(std::uint64_t id, TimePoint when) {
  if (id == 0) return;
  WorkerFor(id).waitset.PostAt(id, when);
}

void Reactor::Remove(std::uint64_t id) {
  if (id == 0) return;
  Worker& w = WorkerFor(id);
  w.waitset.Remove(id);
  // The callback (and whatever it captured) is destroyed after the lock
  // is released: its captures may own channels whose teardown locks.
  std::shared_ptr<Registration> dead;
  MutexLock lock(w.mu);
  if (const auto it = w.regs.find(id); it != w.regs.end()) {
    dead = std::move(it->second);
    w.regs.erase(it);
  }
  // On the owning worker `id` cannot be mid-run: the worker is running us.
  if (OnWorkerFor(id)) return;
  while (w.running_id == id) w.idle_cv.Wait(w.mu);
}

}  // namespace cool::sim
