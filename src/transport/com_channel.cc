#include "transport/com_channel.h"

#include "common/buffer_pool.h"
#include "common/logging.h"

namespace cool::transport {

ComChannel::~ComChannel() = default;

Status ComChannel::SendMessageV(
    std::span<const std::span<const std::uint8_t>> parts) {
  if (parts.size() == 1) return SendMessage(parts[0]);
  std::size_t total = 0;
  for (const auto& part : parts) total += part.size();
  // Gather fallback for transports without a true scatter write: one pooled
  // buffer, recycled when the send returns.
  ByteBuffer joined = BufferPool::Default().Lease(total);
  for (const auto& part : parts) joined.Append(part);
  return SendMessage(joined.view());
}

Result<ByteBuffer> ComChannel::ReceiveMessage(Duration timeout) {
  MutexLock lock(receive_mu_);
  bool watchable = true;
  std::optional<Result<ByteBuffer>> got = sim::AwaitReady(
      [&](const sim::WaitSet& set, sim::WaitSet::Token token) {
        return watchable = RegisterRx(set, token);
      },
      [this]() -> std::optional<Result<ByteBuffer>> {
        Result<std::optional<ByteBuffer>> next = TryReceiveMessage();
        if (!next.ok()) return Result<ByteBuffer>(next.status());
        if (!next->has_value()) return std::nullopt;
        return Result<ByteBuffer>(std::move(**next));
      },
      DeadlineFor(timeout));
  if (got.has_value()) return *std::move(got);
  if (!watchable) {
    return Status(UnsupportedError(std::string(protocol()) +
                                   " transport has no receive readiness"));
  }
  return Status(DeadlineExceededError("receive timed out"));
}

void ComChannel::DrainAsync() {
  std::vector<Thread> threads;
  {
    MutexLock lock(async_mu_);
    threads.swap(notify_threads_);
  }
  for (auto& t : threads) {
    if (t.joinable()) t.join();
  }
}

Result<ByteBuffer> ComChannel::Call(std::span<const std::uint8_t> request,
                                    Duration timeout) {
  MutexLock lock(call_mu_);
  COOL_RETURN_IF_ERROR(SendMessage(request));
  return ReceiveMessage(timeout);
}

Status ComChannel::Send(std::span<const std::uint8_t> request) {
  return SendMessage(request);
}

Status ComChannel::Reply(std::span<const std::uint8_t> reply) {
  return SendMessage(reply);
}

Result<ComChannel::Deferred> ComChannel::Defer(
    std::span<const std::uint8_t> request) {
  MutexLock lock(async_mu_);
  if (deferred_outstanding_) {
    // One in-flight deferred conversation per channel; interleaving is the
    // message layer's job (GIOP request_id).
    return Status(FailedPreconditionError(
        "channel already has a deferred request outstanding"));
  }
  COOL_RETURN_IF_ERROR(SendMessage(request));
  deferred_outstanding_ = true;
  return Deferred{next_deferred_id_++};
}

Result<ByteBuffer> ComChannel::PollDeferred(Deferred handle,
                                            Duration timeout) {
  {
    MutexLock lock(async_mu_);
    if (cancelled_.erase(handle.id) != 0) {
      deferred_outstanding_ = false;
      return Status(CancelledError("deferred request was cancelled"));
    }
  }
  auto reply = ReceiveMessage(timeout);
  if (reply.ok() ||
      reply.status().code() != ErrorCode::kDeadlineExceeded) {
    MutexLock lock(async_mu_);
    deferred_outstanding_ = false;
  }
  return reply;
}

Status ComChannel::Notify(std::span<const std::uint8_t> request,
                          ReplyCallback callback) {
  COOL_RETURN_IF_ERROR(SendMessage(request));
  MutexLock lock(async_mu_);
  notify_threads_.emplace_back(
      [this, cb = std::move(callback)](std::stop_token) {
        cb(ReceiveMessage(seconds(30)));
      });
  return Status::Ok();
}

Status ComChannel::Cancel(Deferred handle) {
  MutexLock lock(async_mu_);
  if (!deferred_outstanding_) {
    return FailedPreconditionError("no deferred request outstanding");
  }
  cancelled_.insert(handle.id);
  return Status::Ok();
}

Status ComChannel::SetQoSParameter(const qos::QoSSpec& spec) {
  if (spec.empty()) return Status::Ok();
  return UnsupportedError(std::string(protocol()) +
                          " transport does not implement setQoSParameter");
}

qos::Capability ComChannel::TransportCapability() const {
  return qos::Capability::BestEffortOnly();
}

Result<std::unique_ptr<ComChannel>> ComManager::AcceptChannel() {
  std::optional<Result<std::unique_ptr<ComChannel>>> got = sim::AwaitReady(
      [this](const sim::WaitSet& set, sim::WaitSet::Token token) {
        return RegisterAccept(set, token);
      },
      [this]() -> std::optional<Result<std::unique_ptr<ComChannel>>> {
        Result<std::unique_ptr<ComChannel>> next = TryAcceptChannel();
        if (next.ok() && *next == nullptr) return std::nullopt;
        return next;
      },
      TimePoint::max());
  if (got.has_value()) return *std::move(got);
  return Status(UnsupportedError(std::string(protocol()) +
                                 " transport has no accept readiness"));
}

}  // namespace cool::transport
