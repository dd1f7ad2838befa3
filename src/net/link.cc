#include "net/link.h"

#include <algorithm>

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
  t.order = next_order_++;
  t.priority = priority;
  sim_.schedule_after(params_.latency_ms, [this, id] {
    Transfer* t = transfers_.find(id);
    if (t == nullptr) return;  // cancelled during latency
    if (t->remaining == 0) {
      ProgressFn cb = std::move(t->on_progress);
      transfers_.erase(id);
      note_transfer_completed();
      cb(0, true);
      return;
    }
    t->started = true;
    arm_tick();
  });
  return id;
}

bool Link::cancel(TransferId id) {
  if (!transfers_.erase(id)) return false;
  static obs::Counter& cancelled =
      obs::metrics().counter("net.link.transfers_cancelled_total");
  cancelled.inc();
  active_transfers_gauge().sub(1);
  return true;
}

void Link::note_transfer_completed() {
  static obs::Counter& completed =
      obs::metrics().counter("net.link.transfers_completed_total");
  completed.inc();
  active_transfers_gauge().sub(1);
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

  // Started transfers: priority first (kFifo serving order), then FIFO.
  active_.clear();
  transfers_.for_each([this](TransferId id, Transfer& t) {
    if (t.started) active_.push_back({id, &t});
  });
  std::sort(active_.begin(), active_.end(), [](auto& a, auto& b) {
    if (a.second->priority != b.second->priority)
      return a.second->priority > b.second->priority;
    return a.second->order < b.second->order;
  });

  deliveries_.clear();
  finished_.clear();
  auto give = [&](TransferId id, Transfer& t, double amount) {
    auto grant = static_cast<Bytes>(amount);
    grant = std::min(grant, t.remaining);
    if (grant <= 0) return 0.0;
    t.remaining -= grant;
    delivered_total_ += grant;
    const bool complete = t.remaining == 0;
    deliveries_.push_back({id, grant, complete});
    if (complete) finished_.push_back({id, std::move(t.on_progress)});
    return static_cast<double>(grant);
  };

  Bytes quantum_delivered = 0;
  if (params_.sharing == Sharing::kFifo) {
    for (auto& [id, t] : active_) {
      if (budget < 1) break;
      double used = give(id, *t, budget);
      budget -= used;
      quantum_delivered += static_cast<Bytes>(used);
    }
  } else {
    // Water-filling fair share: repeatedly split remaining budget among
    // transfers that still want bytes.
    wanting_.assign(active_.begin(), active_.end());
    while (budget >= 1 && !wanting_.empty()) {
      double share = budget / static_cast<double>(wanting_.size());
      if (share < 1) share = 1;  // avoid infinite splitting
      double spent = 0;
      still_.clear();
      for (auto& [id, t] : wanting_) {
        if (budget - spent < 1) break;
        double used = give(id, *t, std::min(share, budget - spent));
        spent += used;
        if (t->remaining > 0) still_.push_back({id, t});
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

  for (const Finished& f : finished_) {
    transfers_.erase(f.id);
    note_transfer_completed();
  }
  // Sorted by id so each delivery finds its finished callable by binary search.
  std::sort(finished_.begin(), finished_.end(),
            [](const Finished& a, const Finished& b) { return a.id < b.id; });

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
    if (Transfer* t = transfers_.find(d.id)) {
      ProgressFn fn = std::move(t->on_progress);
      fn(d.bytes, false);
      if (Transfer* back = transfers_.find(d.id)) back->on_progress = std::move(fn);
      continue;
    }
    auto f = std::lower_bound(
        finished_.begin(), finished_.end(), d.id,
        [](const Finished& e, TransferId id) { return e.id < id; });
    if (f == finished_.end() || f->id != d.id) continue;
    f->fn(d.bytes, d.complete);
  }
  finished_.clear();

  bool any_started = false;
  transfers_.for_each([&any_started](TransferId, const Transfer& t) {
    any_started = any_started || t.started;
  });
  if (any_started)
    arm_tick();
  else
    carry_bytes_ = 0;  // idle link does not bank capacity
}

}  // namespace mfhttp
