#include "sim/network.h"

#include <algorithm>

#include "common/logging.h"

namespace cool::sim {

namespace internal {

Status StreamPipe::WriteV(std::span<const std::span<const std::uint8_t>> parts) {
  std::optional<Result<TimePoint>> sent = AwaitReady(
      [this](const WaitSet& set, WaitSet::Token token) {
        WatchWrite(set, token);
        return true;
      },
      [&] { return ReserveAndEnqueue(parts); }, TimePoint::max());
  COOL_ASSIGN_OR_RETURN(const TimePoint send_done, *std::move(sent));
  // The parts are already on their way; the caller still occupies the
  // link for the reserved slot, as a blocking writev would.
  PreciseSleep(send_done - Now());
  return Status::Ok();
}

Result<bool> StreamPipe::TryWriteV(
    std::span<const std::span<const std::uint8_t>> parts) {
  std::optional<Result<TimePoint>> sent = ReserveAndEnqueue(parts);
  if (!sent.has_value()) return false;
  if (!sent->ok()) return sent->status();
  return true;
}

std::optional<Result<TimePoint>> StreamPipe::ReserveAndEnqueue(
    std::span<const std::span<const std::uint8_t>> parts) {
  std::size_t total = 0;
  for (const auto& part : parts) total += part.size();
  MutexLock lock(mu_);
  if (closed_) return Result<TimePoint>(UnavailableError("stream closed"));
  TimePoint send_done = std::max(Now(), link_free_at_);
  if (total == 0) return Result<TimePoint>(send_done);
  if (buffered_bytes_ >= window_bytes_) {
    write_refused_ = true;
    return std::nullopt;
  }
  if (link_.bandwidth_bps == 0) {
    EnqueueLocked(parts, total, send_done + link_.latency);
  } else {
    // A paced link delivers the gather progressively, each part once its
    // own serialization completes: a large burst must not become readable
    // only with its last octet.
    for (const auto& part : parts) {
      if (part.empty()) continue;
      send_done += link_.SerializationDelay(part.size());
      EnqueueLocked({&part, 1}, part.size(), send_done + link_.latency);
    }
  }
  link_free_at_ = send_done;
  return Result<TimePoint>(send_done);
}

bool StreamPipe::Writable() {
  MutexLock lock(mu_);
  return closed_ || buffered_bytes_ < window_bytes_;
}

void StreamPipe::EnqueueLocked(
    std::span<const std::span<const std::uint8_t>> parts, std::size_t total,
    TimePoint deliver_at) {
  Chunk chunk;
  chunk.ready = deliver_at;
  if (!spare_.empty()) {
    chunk.data = std::move(spare_.back());  // recycled backing store
    spare_.pop_back();
  }
  chunk.data.reserve(total);
  for (const auto& part : parts) {
    chunk.data.insert(chunk.data.end(), part.begin(), part.end());
  }
  buffered_bytes_ += total;
  chunks_.push_back(std::move(chunk));
  read_watch_.SignalReady(deliver_at);
}

Result<std::size_t> StreamPipe::Read(std::span<std::uint8_t> out,
                                     TimePoint deadline) {
  if (out.empty()) return std::size_t{0};
  std::optional<Result<std::size_t>> got = AwaitReady(
      [this](const WaitSet& set, WaitSet::Token token) {
        WatchRead(set, token);
        return true;
      },
      [&]() -> std::optional<Result<std::size_t>> {
        Result<std::size_t> n = TryRead(out);
        if (n.ok() && *n == 0) return std::nullopt;
        return n;
      },
      deadline);
  if (got.has_value()) return *std::move(got);
  return Status(DeadlineExceededError("stream read timed out"));
}

std::size_t StreamPipe::DrainReadyLocked(std::span<std::uint8_t> out)
    COOL_REQUIRES(mu_) {
  std::size_t copied = 0;
  while (copied < out.size() && HasChunkLocked() &&
         FrontChunkLocked().ready <= Now()) {
    Chunk& chunk = FrontChunkLocked();
    const std::size_t take =
        std::min(out.size() - copied, chunk.data.size() - chunk.offset);
    std::copy_n(chunk.data.begin() + static_cast<std::ptrdiff_t>(chunk.offset),
                take, out.begin() + static_cast<std::ptrdiff_t>(copied));
    chunk.offset += take;
    copied += take;
    buffered_bytes_ -= take;
    if (chunk.offset == chunk.data.size()) {
      if (spare_.size() < kMaxSpareChunks) {
        chunk.data.clear();  // keep the capacity warm for the next write
        spare_.push_back(std::move(chunk.data));
      }
      PopChunkLocked();
    }
  }
  if (copied > 0) {
    if (write_refused_ && buffered_bytes_ < window_bytes_) {
      write_refused_ = false;
      write_watch_.SignalReady();
    }
  }
  return copied;
}

Result<std::size_t> StreamPipe::TryRead(std::span<std::uint8_t> out) {
  if (out.empty()) return std::size_t{0};
  MutexLock lock(mu_);
  const std::size_t copied = DrainReadyLocked(out);
  if (copied > 0) return copied;
  if (HasChunkLocked()) {
    // Head chunk still in flight: re-arm the watcher for its delivery time
    // so the pre-attach backlog is never silently stranded.
    read_watch_.SignalReady(FrontChunkLocked().ready);
    return std::size_t{0};
  }
  if (closed_) return Status(UnavailableError("stream closed by peer"));
  return std::size_t{0};
}

void StreamPipe::WatchRead(const WaitSet& set, WaitSet::Token token) {
  MutexLock lock(mu_);
  read_watch_.Watch(set, token);
}

void StreamPipe::WatchWrite(const WaitSet& set, WaitSet::Token token) {
  MutexLock lock(mu_);
  write_watch_.Watch(set, token);
}

void StreamPipe::Close() {
  MutexLock lock(mu_);
  closed_ = true;
  read_watch_.SignalReady();
  write_watch_.SignalReady();
}

void AcceptQueue::Enqueue(std::unique_ptr<StreamSocket> socket) {
  MutexLock lock(mu);
  if (closed) return;  // connection refused; peer sees closed pipes
  pending.push_back(std::move(socket));
  watch.SignalReady();
}

Result<std::unique_ptr<StreamSocket>> AcceptQueue::Pop(TimePoint deadline) {
  std::optional<Result<std::unique_ptr<StreamSocket>>> got = AwaitReady(
      [this](const WaitSet& set, WaitSet::Token token) {
        WatchAccept(set, token);
        return true;
      },
      [this]() -> std::optional<Result<std::unique_ptr<StreamSocket>>> {
        Result<std::unique_ptr<StreamSocket>> next = TryPop();
        if (next.ok() && *next == nullptr) return std::nullopt;
        return next;
      },
      deadline);
  if (got.has_value()) return *std::move(got);
  return Status(DeadlineExceededError("accept timed out"));
}

Result<std::unique_ptr<StreamSocket>> AcceptQueue::TryPop() {
  MutexLock lock(mu);
  if (!pending.empty()) {
    auto socket = std::move(pending.front());
    pending.pop_front();
    return socket;
  }
  if (closed) return Status(UnavailableError("listener closed"));
  return std::unique_ptr<StreamSocket>();
}

void AcceptQueue::WatchAccept(const WaitSet& set, WaitSet::Token token) {
  MutexLock lock(mu);
  watch.Watch(set, token);
}

void AcceptQueue::Close() {
  std::deque<std::unique_ptr<StreamSocket>> orphans;
  {
    MutexLock lock(mu);
    closed = true;
    orphans.swap(pending);
    watch.SignalReady();
  }
  // Hang up connections that were queued but never accepted — their peers
  // may be blocked mid-handshake and must see kUnavailable, not wait
  // forever. Outside the lock: Close() takes the pipes' own locks.
  for (auto& socket : orphans) socket->Close();
}

void DatagramQueue::Deliver(TimePoint ready, Address from,
                            std::vector<std::uint8_t> payload) {
  MutexLock lock(mu);
  if (closed) return;
  TimedDatagram t;
  t.ready = ready;
  t.seq = next_seq++;
  t.dgram = Datagram{std::move(from), std::move(payload)};
  rx.push(std::move(t));
  watch.SignalReady(ready);
}

std::optional<Datagram> DatagramQueue::Pop(TimePoint deadline) {
  // The inner optional is empty once the queue is closed and drained.
  std::optional<std::optional<Datagram>> got = AwaitReady(
      [this](const WaitSet& set, WaitSet::Token token) {
        WatchRecv(set, token);
        return true;
      },
      [this]() -> std::optional<std::optional<Datagram>> {
        std::optional<Datagram> d = TryPop();
        if (d.has_value() || depleted()) return d;
        return std::nullopt;
      },
      deadline);
  if (got.has_value()) return *std::move(got);
  return std::nullopt;
}

std::optional<Datagram> DatagramQueue::TryPop() {
  MutexLock lock(mu);
  if (!rx.empty()) {
    if (rx.top().ready > Now()) {
      // Head datagram still in flight: re-arm for its arrival time.
      watch.SignalReady(rx.top().ready);
      return std::nullopt;
    }
    Datagram d = std::move(const_cast<TimedDatagram&>(rx.top()).dgram);
    rx.pop();
    return d;
  }
  return std::nullopt;
}

bool DatagramQueue::depleted() const {
  MutexLock lock(mu);
  return closed && rx.empty();
}

void DatagramQueue::WatchRecv(const WaitSet& set, WaitSet::Token token) {
  MutexLock lock(mu);
  watch.Watch(set, token);
}

void DatagramQueue::Close() {
  MutexLock lock(mu);
  closed = true;
  watch.SignalReady();
}

}  // namespace internal

Status StreamSocket::RecvExact(std::span<std::uint8_t> out,
                               TimePoint deadline) {
  std::size_t got = 0;
  while (got < out.size()) {
    COOL_ASSIGN_OR_RETURN(std::size_t n, rx_->Read(out.subspan(got), deadline));
    got += n;
  }
  return Status::Ok();
}

Listener::~Listener() {
  Close();
  net_->Unregister(this);
}

DatagramPort::~DatagramPort() {
  Close();
  net_->UnregisterPort(this);
}

Status DatagramPort::SendTo(const Address& dst,
                            std::span<const std::uint8_t> payload) {
  const std::span<const std::uint8_t> one[] = {payload};
  return SendToV(dst, one);
}

Status DatagramPort::SendToV(
    const Address& dst, std::span<const std::span<const std::uint8_t>> parts) {
  std::size_t total = 0;
  for (const auto& part : parts) total += part.size();
  const LinkProperties link = net_->LinkBetween(addr_.host, dst.host);
  if (total > link.mtu) {
    return InvalidArgumentError("datagram exceeds link MTU");
  }

  TimePoint send_done;
  {
    MutexLock lock(tx_mu_);
    const TimePoint start = std::max(Now(), link_free_at_);
    send_done = start + link.SerializationDelay(total);
    link_free_at_ = send_done;
  }
  PreciseSleep(send_done - Now());

  std::vector<std::uint8_t> payload;
  payload.reserve(total);
  for (const auto& part : parts) {
    payload.insert(payload.end(), part.begin(), part.end());
  }
  return net_->RouteDatagram(addr_, dst, std::move(payload),
                             send_done + link.latency);
}

void Network::SetLink(const std::string& host_a, const std::string& host_b,
                      LinkProperties props) {
  MutexLock lock(mu_);
  links_[std::minmax(host_a, host_b)] = props;
}

LinkProperties Network::LinkBetween(const std::string& a,
                                    const std::string& b) const {
  if (a == b) {
    // Loopback: no pacing (bandwidth 0 == infinite), no propagation.
    LinkProperties loopback;
    loopback.bandwidth_bps = 0;
    loopback.latency = Duration::zero();
    loopback.jitter = Duration::zero();
    loopback.loss_rate = 0.0;
    return loopback;
  }
  MutexLock lock(mu_);
  const auto it = links_.find(std::minmax(a, b));
  return it != links_.end() ? it->second : default_link_;
}

Result<std::unique_ptr<Listener>> Network::Listen(const Address& addr) {
  MutexLock lock(mu_);
  auto [it, inserted] = listeners_.try_emplace(addr);
  if (!inserted) {
    return Status(AlreadyExistsError("address in use: " + addr.ToString()));
  }
  it->second = std::make_shared<internal::AcceptQueue>();
  return std::make_unique<Listener>(this, addr, it->second);
}

Result<std::unique_ptr<StreamSocket>> Network::Connect(
    const std::string& local_host, const Address& remote) {
  std::shared_ptr<internal::AcceptQueue> queue;
  Address local;
  {
    MutexLock lock(mu_);
    const auto it = listeners_.find(remote);
    if (it == listeners_.end()) {
      return Status(
          UnavailableError("connection refused: " + remote.ToString()));
    }
    queue = it->second;
    local = Address{local_host, next_ephemeral_++};
  }

  const LinkProperties link = LinkBetween(local_host, remote.host);
  // TCP-style handshake: one round trip before data can flow.
  PreciseSleep(link.latency * 2);

  constexpr std::size_t kWindowBytes = 4 * 1024 * 1024;
  auto a_to_b = std::make_shared<internal::StreamPipe>(link, kWindowBytes);
  auto b_to_a = std::make_shared<internal::StreamPipe>(link, kWindowBytes);

  auto client_side =
      std::make_unique<StreamSocket>(local, remote, a_to_b, b_to_a);
  auto server_side =
      std::make_unique<StreamSocket>(remote, local, b_to_a, a_to_b);
  queue->Enqueue(std::move(server_side));
  return client_side;
}

Result<std::unique_ptr<DatagramPort>> Network::OpenPort(const Address& addr) {
  MutexLock lock(mu_);
  auto [it, inserted] = ports_.try_emplace(addr);
  if (!inserted) {
    return Status(AlreadyExistsError("port in use: " + addr.ToString()));
  }
  it->second = std::make_shared<internal::DatagramQueue>();
  return std::make_unique<DatagramPort>(this, addr, it->second);
}

void Network::Unregister(const Listener* listener) {
  MutexLock lock(mu_);
  const auto it = listeners_.find(listener->addr_);
  if (it != listeners_.end() && it->second == listener->queue_) {
    listeners_.erase(it);
  }
}

void Network::UnregisterPort(const DatagramPort* port) {
  MutexLock lock(mu_);
  const auto it = ports_.find(port->addr_);
  if (it != ports_.end() && it->second == port->queue_) ports_.erase(it);
}

Status Network::RouteDatagram(const Address& from, const Address& dst,
                              std::vector<std::uint8_t> payload,
                              TimePoint earliest_arrival) {
  const LinkProperties link = LinkBetween(from.host, dst.host);
  std::shared_ptr<internal::DatagramQueue> queue;
  TimePoint arrival = earliest_arrival;
  {
    MutexLock lock(mu_);
    if (RollLossLocked(link.loss_rate)) {
      return Status::Ok();  // silently dropped, like the real thing
    }
    arrival += RollJitterLocked(link.jitter);
    const auto it = ports_.find(dst);
    if (it == ports_.end()) {
      return Status::Ok();  // no receiver: datagram falls on the floor
    }
    queue = it->second;
  }
  queue->Deliver(arrival, from, std::move(payload));
  return Status::Ok();
}

bool Network::RollLossLocked(double p) {
  return p > 0.0 && rng_.NextBool(p);
}

Duration Network::RollJitterLocked(Duration max_jitter) {
  if (max_jitter <= Duration::zero()) return Duration::zero();
  const double frac = rng_.NextDouble();
  return std::chrono::duration_cast<Duration>(
      std::chrono::duration<double>(ToSeconds(max_jitter) * frac));
}

}  // namespace cool::sim
