#include "net/link.h"

#include <algorithm>
#include <iterator>

#include "obs/metrics.h"
#include "util/check.h"
#include "util/logging.h"

namespace mfhttp {

namespace {

// In-flight transfers across every link (queue-depth gauge).
obs::Gauge& active_transfers_gauge() {
  static obs::Gauge& g = obs::metrics().gauge("net.link.active_transfers");
  return g;
}

}  // namespace

Link::Link(Simulator& sim, Params params) : sim_(sim), params_(std::move(params)) {
  MFHTTP_CHECK(params_.quantum_ms > 0);
  MFHTTP_CHECK(params_.latency_ms >= 0);
}

Link::~Link() {
  // Transfers abandoned with the link leave the in-flight gauge otherwise.
  active_transfers_gauge().sub(static_cast<std::int64_t>(transfers_.size()));
}

void Link::reserve(std::size_t transfers) {
  transfers_.reserve(transfers);
  active_.reserve(transfers);
  wanting_.reserve(transfers);
  still_.reserve(transfers);
  deliveries_.reserve(transfers);
  finished_.reserve(transfers);
}

Link::TransferId Link::submit(Bytes size, ProgressFn on_progress, int priority) {
  MFHTTP_CHECK(size >= 0);
  MFHTTP_CHECK(on_progress != nullptr);
  const TransferId id = transfers_.insert();
  static obs::Counter& submitted = obs::metrics().counter("net.link.transfers_total");
  submitted.inc();
  active_transfers_gauge().add(1);
  Transfer& t = *transfers_.find(id);
  t.remaining = size;
  t.on_progress = std::move(on_progress);
  t.priority = priority;
  sim_.schedule_after(params_.latency_ms, [this, id] { start(id); });
  return id;
}

void Link::start(TransferId id) {
  Transfer* t = transfers_.find(id);
  if (t == nullptr) return;  // cancelled during latency
  if (t->remaining == 0) {
    ProgressFn cb = std::move(t->on_progress);
    transfers_.erase(id);
    note_transfers_completed(1);
    cb(0, true);
    return;
  }
  t->started = true;
  ++started_;
  // Every transfer waits the same latency, so this one was submitted after
  // every started transfer: it goes at the tail of its priority class.
  auto at = active_.end();
  while (at != active_.begin() && std::prev(at)->priority < t->priority) --at;
  active_.insert(at, {id, t, t->priority, kNotFinished});
  arm_tick();
}

bool Link::cancel(TransferId id) {
  const Transfer* t = transfers_.find(id);
  if (t == nullptr) return false;
  if (t->started) --started_;
  transfers_.erase(id);
  static obs::Counter& cancelled =
      obs::metrics().counter("net.link.transfers_cancelled_total");
  cancelled.inc();
  active_transfers_gauge().sub(1);
  return true;
}

void Link::note_transfers_completed(std::size_t n) {
  static obs::Counter& completed =
      obs::metrics().counter("net.link.transfers_completed_total");
  completed.inc(n);
  active_transfers_gauge().sub(static_cast<std::int64_t>(n));
}

void Link::arm_tick() {
  if (tick_event_ != Simulator::kInvalidEvent && sim_.pending(tick_event_)) return;
  tick_event_ = sim_.schedule_after(params_.quantum_ms, [this] { tick(); });
}

void Link::tick() {
  tick_event_ = Simulator::kInvalidEvent;
  const TimeMs now = sim_.now();
  const TimeMs quantum_start = now - params_.quantum_ms;
  double budget =
      params_.bandwidth.bytes_between(quantum_start, now) + carry_bytes_;

  // Drop the transfers that finished or were cancelled since the last
  // quantum; the rest are already in serving order (priority first, then
  // FIFO).
  std::size_t kept = 0;
  for (const Serving& s : active_)
    if (transfers_.contains(s.id)) active_[kept++] = s;
  active_.resize(kept);

  deliveries_.clear();
  finished_.clear();
  auto give = [&](std::uint32_t at, double amount) {
    Serving& s = active_[at];
    Transfer& t = *s.t;
    auto grant = static_cast<Bytes>(amount);
    grant = std::min(grant, t.remaining);
    if (grant <= 0) return 0.0;
    t.remaining -= grant;
    delivered_total_ += grant;
    const bool complete = t.remaining == 0;
    deliveries_.push_back({at, grant, complete});
    if (complete) {
      s.finished = static_cast<std::uint32_t>(finished_.size());
      finished_.push_back({s.id, std::move(t.on_progress)});
    }
    return static_cast<double>(grant);
  };

  Bytes quantum_delivered = 0;
  const auto serving = static_cast<std::uint32_t>(active_.size());
  if (params_.sharing == Sharing::kFifo) {
    for (std::uint32_t at = 0; at < serving; ++at) {
      if (budget < 1) break;
      double used = give(at, budget);
      budget -= used;
      quantum_delivered += static_cast<Bytes>(used);
    }
  } else {
    // Water-filling fair share: repeatedly split remaining budget among
    // transfers that still want bytes.
    wanting_.clear();
    for (std::uint32_t at = 0; at < serving; ++at) wanting_.push_back(at);
    while (budget >= 1 && !wanting_.empty()) {
      double share = budget / static_cast<double>(wanting_.size());
      if (share < 1) share = 1;  // avoid infinite splitting
      double spent = 0;
      still_.clear();
      for (std::uint32_t at : wanting_) {
        if (budget - spent < 1) break;
        double used = give(at, std::min(share, budget - spent));
        spent += used;
        if (active_[at].t->remaining > 0) still_.push_back(at);
      }
      budget -= spent;
      quantum_delivered += static_cast<Bytes>(spent);
      if (spent < 1) break;  // nobody could take more
      wanting_.swap(still_);
    }
  }
  // Carry only the sub-byte fraction: whole bytes left over mean the link
  // genuinely idled for part of the quantum, and idle capacity is not banked.
  carry_bytes_ = budget - static_cast<double>(static_cast<Bytes>(budget));

  for (const Finished& f : finished_) transfers_.erase(f.id);
  if (!finished_.empty()) note_transfers_completed(finished_.size());
  started_ -= finished_.size();

  if (quantum_delivered > 0) {
    static obs::Counter& delivered =
        obs::metrics().counter("net.link.bytes_delivered_total");
    delivered.inc(static_cast<std::uint64_t>(quantum_delivered));
  }
  if (params_.record_consumption && quantum_delivered > 0)
    consumption_log_.emplace_back(quantum_start, quantum_delivered);

  // Fire callbacks after internal state is consistent (callbacks may submit
  // or cancel transfers on this link). A transfer still in transfers_ gets
  // its own callable, moved out for the call and put back only if the
  // transfer survived it — so a callback cancelling its own transfer is
  // safe. A transfer finished this quantum gets the callable moved out of
  // it above, for every chunk including non-final fair-share rounds (cancel()
  // on it is a no-op reporting false). A transfer in neither place was
  // cancelled mid-dispatch and gets nothing more, even chunks it had earned.
  for (const Delivery& d : deliveries_) {
    const Serving& s = active_[d.at];
    if (s.finished != kNotFinished) {
      finished_[s.finished].fn(d.bytes, d.complete);
      continue;
    }
    if (Transfer* t = transfers_.find(s.id)) {
      ProgressFn fn = std::move(t->on_progress);
      fn(d.bytes, false);
      if (Transfer* back = transfers_.find(s.id)) back->on_progress = std::move(fn);
    }
  }
  finished_.clear();

  if (started_ > 0)
    arm_tick();
  else
    carry_bytes_ = 0;  // idle link does not bank capacity
}

}  // namespace mfhttp
