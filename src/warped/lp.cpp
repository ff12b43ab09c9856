#include "warped/lp.hpp"

#include <algorithm>
#include <cmath>

#include "core/assert.hpp"

namespace nicwarp::warped {

namespace {

// Undo-pool cap per LP: 4096 chunks x 64 slots x ~56 B ≈ 14 MB. Hitting it
// marks the in-flight record undo_ok=false (graceful fallback to
// snapshot+coast-forward) instead of growing without bound.
constexpr std::size_t kUndoPoolMaxChunks = 4096;

// Adaptive checkpoint interval bounds and window decay threshold.
constexpr std::int64_t kAdaptiveMinPeriod = 1;
constexpr std::int64_t kAdaptiveMaxPeriod = 64;
constexpr std::uint64_t kAdaptiveWindowCap = 4096;

// ObjectContext used during execute()/initialize(): collects sends and
// provides per-execution deterministic randomness.
class ExecCtx final : public ObjectContext {
 public:
  // `rng_seed` is the object's ObjRt::rng_seed; the stream equals
  // Rng(lp_seed ^ parent, obj.name()) without hashing the name per event.
  ExecCtx(SimulationObject& obj, VirtualTime now, EventId parent, std::uint64_t rng_seed)
      : obj_(obj), now_(now), parent_(parent), rng_(rng_seed ^ parent) {}

  VirtualTime now() const override { return now_; }

  void send(ObjectId dst, VirtualTime recv_ts, std::vector<std::int64_t> data) override {
    NW_CHECK_MSG(recv_ts > now_, "events must be scheduled strictly in the future");
    EventMsg ev;
    ev.src_obj = obj_.id();
    ev.dst_obj = dst;
    ev.send_ts = now_;
    ev.recv_ts = recv_ts;
    ev.id = make_event_id(parent_, obj_.id(), static_cast<std::uint32_t>(sends_.size()));
    ev.data = std::move(data);
    sends_.push_back(std::move(ev));
  }

  Rng& rng() override { return rng_; }

  void fold_signature(std::int64_t v) override {
    // Order-insensitive fold so the commit schedule cannot affect it. Goes
    // through the write barrier: the signature is rollback-able state.
    // Folded in uint64 so wraparound is defined.
    State& st = obj_.state();
    std::int64_t& sig = st.mut(st.signature);
    sig = static_cast<std::int64_t>(static_cast<std::uint64_t>(sig) +
                                    static_cast<std::uint64_t>(v) * 0x9E3779B97F4A7C15ULL +
                                    0x165667B19E3779F9ULL);
  }

  std::vector<EventMsg> take_sends() { return std::move(sends_); }

 private:
  SimulationObject& obj_;
  VirtualTime now_;
  EventId parent_;
  Rng rng_;
  std::vector<EventMsg> sends_;
};

}  // namespace

LogicalProcess::LogicalProcess(NodeId rank, StatsRegistry& stats, std::uint64_t seed,
                               RollbackScope scope, CancellationMode cancellation,
                               std::int64_t state_save_period, StateSaveMode state_mode)
    : rank_(rank),
      tw_(stats),
      seed_(seed),
      scope_(scope),
      cancellation_(cancellation),
      state_save_period_(state_save_period),
      state_mode_(state_mode),
      undo_pool_(kUndoPoolMaxChunks) {
  NW_CHECK(state_save_period_ >= 0);  // 0 = adaptive interval
}

void LogicalProcess::recompute_adaptive_period() {
  // Lin–Lazowska: the checkpoint interval minimizing save + coast-forward
  // cost is ~sqrt(2µ) for µ events per rollback. The window decays by
  // halving so the estimate tracks phase changes in rollback pressure; all
  // inputs are deterministic counts, so so is the cadence.
  const double mu = static_cast<double>(win_events_ + 1) /
                    static_cast<double>(win_rollbacks_ + 1);
  const auto p = static_cast<std::int64_t>(std::llround(std::sqrt(2.0 * mu)));
  eff_period_ = std::clamp(p, kAdaptiveMinPeriod, kAdaptiveMaxPeriod);
  if (win_events_ >= kAdaptiveWindowCap) {
    win_events_ /= 2;
    win_rollbacks_ /= 2;
  }
}

void LogicalProcess::add_object(std::unique_ptr<SimulationObject> obj) {
  NW_CHECK(obj != nullptr);
  NW_CHECK_MSG(objs_.count(obj->id()) == 0, "duplicate object id on LP");
  ObjRt rt;
  rt.obj = obj.get();
  rt.rng_seed = seed_ ^ stable_hash(obj->name());
  objs_.emplace(obj->id(), std::move(rt));
  storage_.push_back(std::move(obj));
}

std::vector<ObjectId> LogicalProcess::object_ids() const {
  std::vector<ObjectId> out;
  out.reserve(objs_.size());
  for (const auto& [id, rt] : objs_) out.push_back(id);
  return out;
}

LogicalProcess::ObjRt& LogicalProcess::runtime_for(ObjectId id) {
  auto it = objs_.find(id);
  NW_CHECK_MSG(it != objs_.end(), "event routed to LP that does not own the object");
  return it->second;
}

std::vector<EventMsg> LogicalProcess::initialize_objects() {
  std::vector<EventMsg> out;
  for (auto& [id, rt] : objs_) {
    ExecCtx ctx(*rt.obj, VirtualTime::zero(), make_root_id(id), rt.rng_seed);
    rt.obj->initialize(ctx);
    for (auto& ev : ctx.take_sends()) out.push_back(std::move(ev));
  }
  return out;
}

LogicalProcess::InsertResult LogicalProcess::insert(EventMsg ev, bool from_network) {
  InsertResult res;
  ObjRt& rt = runtime_for(ev.dst_obj);
  NW_CHECK_MSG(!(ev.recv_ts < max_gvt_seen_),
               "message below GVT arrived — GVT estimation is unsound");

  if (ev.negative) {
    if (from_network) {
      // Must stay in lock-step with the NIC's per-arrival count (the early
      // cancellation "generated before the host processed it" test).
      rt.antis_processed += 1;
      rt.last_anti_ts = ev.recv_ts;
      lp_antis_processed_ += 1;
      lp_last_anti_ts_ = ev.recv_ts;
    }
    tw_.antis_received.add(1);

    // 1. Annihilate against a pending positive (indexed: one hash probe).
    if (auto it = pending_find(rt, ev.id); it != rt.pending.end()) {
      pending_erase(rt, it);
      // kLazy: the annihilated event will never re-execute; any outputs
      // it had already put on the wire must be cancelled now.
      flush_lazy_for_gen(rt, ev.id, res.antis);
      res.annihilated = true;
      tw_.annihilations.add(1);
      return res;
    }
    // 2. Positive already processed: roll back to just before it, then the
    // positive reappears in pending — annihilate it there.
    for (std::size_t i = 0; i < rt.processed.size(); ++i) {
      if (rt.processed[i].ev.id == ev.id) {
        std::vector<EventId>* sink = collect_undone_ ? &res.undone_ids : nullptr;
        {
          ScopedPhaseTimer phase_scope(phases_, Phase::kRollback);
          if (scope_ == RollbackScope::kLp) {
            // Copy the pivot: rollback_all mutates the deque it lives in.
            const EventMsg pivot = rt.processed[i].ev;
            res.events_undone = rollback_all(pivot, res.antis, res.events_replayed, sink);
          } else {
            res.events_undone = rollback_to(rt, i, res.antis, res.events_replayed, sink);
          }
        }
        if (res.events_undone > max_rollback_depth_) {
          max_rollback_depth_ = res.events_undone;
        }
        res.rollback = true;
        // The straggler positive is now the least pending event for this
        // object; remove it (indexed lookup, no scan).
        auto it = pending_find(rt, ev.id);
        NW_CHECK_MSG(it != rt.pending.end(),
                     "rolled-back positive missing from pending queue");
        pending_erase(rt, it);
        flush_lazy_for_gen(rt, ev.id, res.antis);
        res.annihilated = true;
        tw_.annihilations.add(1);
        tw_.anti_rollbacks.add(1);
        return res;
      }
    }
    // 3. The anti outran its positive (possible on distinct channels); park
    // it until the positive shows up.
    rt.orphan_antis.insert(std::move(ev));
    res.stored_orphan = true;
    tw_.orphan_antis.add(1);
    return res;
  }

  // Positive message. Annihilate against a parked anti first.
  for (auto it = rt.orphan_antis.begin(); it != rt.orphan_antis.end(); ++it) {
    if (it->id == ev.id) {
      rt.orphan_antis.erase(it);
      res.annihilated = true;
      tw_.annihilations.add(1);
      return res;
    }
  }

  // Paranoia mode: a second live positive with the same id means the
  // drop/filter pairing broke somewhere upstream (see firmware/cancel).
  if (paranoia_) {
    NW_CHECK_MSG(pending_find(rt, ev.id) == rt.pending.end(),
                 "duplicate positive (pending) — cancellation pairing broken");
    for (const auto& rec : rt.processed) {
      NW_CHECK_MSG(rec.ev.id != ev.id,
                   "duplicate positive (processed) — cancellation pairing broken");
    }
  }

  // Straggler detection against the canonical order.
  if (is_straggler(rt, ev)) {
    std::vector<EventId>* sink = collect_undone_ ? &res.undone_ids : nullptr;
    {
      ScopedPhaseTimer phase_scope(phases_, Phase::kRollback);
      if (scope_ == RollbackScope::kLp) {
        res.events_undone = rollback_all(ev, res.antis, res.events_replayed, sink);
      } else {
        res.events_undone = rollback_to(rt, rollback_pos(rt, ev), res.antis,
                                        res.events_replayed, sink);
      }
    }
    if (res.events_undone > max_rollback_depth_) {
      max_rollback_depth_ = res.events_undone;
    }
    res.rollback = true;
    tw_.straggler_rollbacks.add(1);
  }

  pending_insert(rt, std::move(ev));
  return res;
}

void LogicalProcess::pending_insert(ObjRt& rt, EventMsg ev) {
  const EventId id = ev.id;
  const auto it = rt.pending.insert(std::move(ev));
  rt.pending_by_id.emplace(id, it);
  ++pending_total_;
  // Advertise when this insertion lowered the object's head below what the
  // ready-heap already knows about (or nothing was advertised at all).
  if (!rt.head_advertised) {
    advertise_head(rt);
  } else if (it == rt.pending.begin() &&
             (it->recv_ts < rt.adv_ts ||
              (it->recv_ts == rt.adv_ts && it->id < rt.adv_id))) {
    advertise_head(rt);
  }
}

void LogicalProcess::pending_erase(ObjRt& rt, PendingQueue::iterator it) {
  // Only unmap if the index points at THIS node (a duplicate id — which
  // paranoia mode rejects outright — must not strand the survivor's entry).
  if (auto idx = rt.pending_by_id.find(it->id);
      idx != rt.pending_by_id.end() && idx->second == it) {
    rt.pending_by_id.erase(idx);
  }
  rt.pending.erase(it);
  --pending_total_;
  // A stale advertisement (head gone or grown) is fine: pops validate
  // against the live head and re-advertise, so no repair is needed here.
}

LogicalProcess::PendingQueue::iterator LogicalProcess::pending_find(ObjRt& rt,
                                                                    EventId id) {
  const auto idx = rt.pending_by_id.find(id);
  return idx == rt.pending_by_id.end() ? rt.pending.end() : idx->second;
}

void LogicalProcess::advertise_head(ObjRt& rt) {
  if (rt.pending.empty()) return;
  const EventMsg& head = *rt.pending.begin();
  rt.head_advertised = true;
  rt.adv_ts = head.recv_ts;
  rt.adv_id = head.id;
  ready_heap_.push_back(HeadEntry{head.recv_ts, head.dst_obj, head.id, &rt});
  std::push_heap(ready_heap_.begin(), ready_heap_.end(), HeadLater{});
}

bool LogicalProcess::is_straggler(const ObjRt& rt, const EventMsg& ev) const {
  if (scope_ == RollbackScope::kObject) {
    return !rt.processed.empty() && event_before(ev, rt.processed.back().ev);
  }
  for (const auto& [id, r] : objs_) {
    if (!r.processed.empty() && event_before(ev, r.processed.back().ev)) return true;
  }
  return false;
}

std::size_t LogicalProcess::rollback_pos(const ObjRt& rt, const EventMsg& pivot) {
  // Undo every record at or after the pivot in canonical order (>=, so an
  // anti-rollback undoes the annihilated positive's own execution too).
  std::size_t pos = rt.processed.size();
  while (pos > 0 && !event_before(rt.processed[pos - 1].ev, pivot)) --pos;
  return pos;
}

std::size_t LogicalProcess::rollback_all(const EventMsg& pivot, std::vector<EventMsg>& out,
                                         std::size_t& replayed,
                                         std::vector<EventId>* undone_ids) {
  // 2002-era shared-queue semantics: every object returns to the straggler's
  // point in the canonical order. All optimistic output beyond it is
  // cancelled — which is precisely what licenses the NIC's timestamp-only
  // send-ring purge (Fig. 3b of the paper).
  std::size_t undone = 0;
  for (auto& [id, rt] : objs_) {
    const std::size_t pos = rollback_pos(rt, pivot);
    if (pos < rt.processed.size()) {
      undone += rollback_to(rt, pos, out, replayed, undone_ids);
    }
  }
  return undone;
}

std::size_t LogicalProcess::rollback_to(ObjRt& rt, std::size_t pos,
                                        std::vector<EventMsg>& out,
                                        std::size_t& replayed,
                                        std::vector<EventId>* undone_ids) {
  NW_CHECK(pos < rt.processed.size());
  const std::size_t undone = rt.processed.size() - pos;

  // Incremental fast path: when every record being undone logged its writes
  // completely (undo_ok) and the target mark is still live, restoring is a
  // reverse byte replay — no snapshot clone, no coast-forward.
  bool pure_undo = state_mode_ == StateSaveMode::kIncremental && rt.undo != nullptr &&
                   rt.processed[pos].undo_mark >= rt.undo->first_pos();
  if (pure_undo) {
    for (std::size_t i = pos; i < rt.processed.size(); ++i) {
      if (!rt.processed[i].undo_ok) {
        pure_undo = false;
        break;
      }
    }
  }
  if (pure_undo) {
    rt.undo->rewind_to(rt.processed[pos].undo_mark);
    undo_rewinds_ += 1;
    tw_.undo_rewinds.add(1);
  } else {
    // The record at `pos` may have no snapshot (periodic saving skipped it,
    // or its undo entries are unusable): restore the nearest earlier
    // snapshot and coast-forward (deterministic re-execution with sends
    // suppressed) up to the rollback point.
    std::size_t snap = pos;
    while (rt.processed[snap].pre_state == nullptr) {
      NW_CHECK_MSG(snap > 0, "no state snapshot reachable — fossil collection bug");
      --snap;
    }
    rt.obj->replace_state(rt.processed[snap].pre_state->clone());
    for (std::size_t i = snap; i < pos; ++i) {
      coast_forward(rt, rt.processed[i].ev);
      ++replayed;
    }
    events_replayed_ += pos - snap;
    tw_.events_replayed.add(static_cast<std::int64_t>(pos - snap));
    // replace_state destroyed the object the undo entries point into; burn
    // the whole log so their marks turn stale (later rollbacks route to
    // snapshots) instead of rewinding through dangling addresses.
    if (rt.undo != nullptr) rt.undo->reset();
  }
  win_rollbacks_ += 1;

  for (std::size_t i = pos; i < rt.processed.size(); ++i) {
    ProcessedRecord& rec = rt.processed[i];
    if (undone_ids != nullptr) undone_ids->push_back(rec.ev.id);
    // Undone events go back to pending for re-execution.
    pending_insert(rt, rec.ev);
    if (cancellation_ == CancellationMode::kAggressive) {
      // Aggressive cancellation: anti-message per output.
      for (const EventMsg& outp : rec.outputs) out.push_back(outp.as_anti());
    } else {
      // Lazy: hold the outputs; re-execution decides their fate.
      for (const EventMsg& outp : rec.outputs) {
        rt.lazy.push_back(LazyRecord{outp, rec.ev});
      }
    }
  }
  rt.processed.erase(rt.processed.begin() + static_cast<std::ptrdiff_t>(pos),
                     rt.processed.end());
  rollbacks_ += 1;
  events_rolled_back_ += undone;
  tw_.rollbacks.add(1);
  tw_.events_rolled_back.add(static_cast<std::int64_t>(undone));
  return undone;
}

void LogicalProcess::coast_forward(ObjRt& rt, const EventMsg& ev) {
  // Deterministic replay: same event, same per-execution RNG stream, same
  // state trajectory — only the sends are discarded (they are already out).
  ExecCtx ctx(*rt.obj, ev.recv_ts, ev.id, rt.rng_seed);
  rt.obj->execute(ctx, ev);
  (void)ctx.take_sends();
}

void LogicalProcess::flush_lazy_before(ObjRt& rt, const EventMsg& next,
                                       std::vector<EventMsg>& antis) {
  // Safety net: a held output whose generator sorts before the event about
  // to execute can never be regenerated (the generator would have executed
  // first). Normally annihilation flushes these exactly; this catches any
  // stragglers of the bookkeeping.
  std::erase_if(rt.lazy, [&](const LazyRecord& rec) {
    if (!event_before(rec.gen, next)) return false;
    antis.push_back(rec.output.as_anti());
    tw_.lazy_flush_before.add(1);
    return true;
  });
}

void LogicalProcess::flush_lazy_for_gen(ObjRt& rt, EventId gen_id,
                                        std::vector<EventMsg>& antis) {
  std::erase_if(rt.lazy, [&](const LazyRecord& rec) {
    if (rec.gen.id != gen_id) return false;
    antis.push_back(rec.output.as_anti());
    tw_.lazy_cancelled.add(1);
    return true;
  });
}

bool LogicalProcess::has_ready_event() const { return pending_total_ > 0; }

VirtualTime LogicalProcess::next_event_ts() const { return lvt(); }

VirtualTime LogicalProcess::lvt() const {
  VirtualTime m = VirtualTime::inf();
  for (const auto& [id, rt] : objs_) {
    if (!rt.pending.empty()) m = VirtualTime::min(m, rt.pending.begin()->recv_ts);
    // Parked antis hold LVT too: until the positive arrives and the pair
    // annihilates, virtual time `recv_ts` is not safely in the past.
    if (!rt.orphan_antis.empty()) {
      m = VirtualTime::min(m, rt.orphan_antis.begin()->recv_ts);
    }
    // So do lazily-held outputs: their anti-message may still be sent.
    for (const auto& rec : rt.lazy) m = VirtualTime::min(m, rec.output.recv_ts);
  }
  return m;
}

LogicalProcess::ExecResult LogicalProcess::execute_next() {
  // Pick the globally least pending event under the canonical order by
  // popping ready-heap advertisements until one matches a live queue head.
  // Every object with pending events keeps an advertisement at or below its
  // head key in the heap (pending_insert maintains this), so the first
  // validated entry IS the global minimum.
  ObjRt* best = nullptr;
  while (!ready_heap_.empty()) {
    std::pop_heap(ready_heap_.begin(), ready_heap_.end(), HeadLater{});
    const HeadEntry e = ready_heap_.back();
    ready_heap_.pop_back();
    ObjRt& rt = *e.rt;
    // Superseded advertisement (a lower head was pushed later): discard.
    if (!rt.head_advertised || e.recv_ts != rt.adv_ts || e.id != rt.adv_id) continue;
    rt.head_advertised = false;
    if (!rt.pending.empty()) {
      const EventMsg& head = *rt.pending.begin();
      if (head.recv_ts == e.recv_ts && head.id == e.id) {
        best = &rt;
        break;
      }
      // The advertised event was annihilated; re-advertise the real head
      // and keep looking (lazy repair).
      advertise_head(rt);
    }
  }
  ExecResult res;
  if (best == nullptr) {
    NW_CHECK_MSG(pending_total_ == 0, "ready-heap lost a pending queue head");
    return res;
  }

  EventMsg ev = *best->pending.begin();
  pending_erase(*best, best->pending.begin());
  advertise_head(*best);  // next head (if any) becomes this object's advert

  if (cancellation_ == CancellationMode::kLazy) {
    flush_lazy_before(*best, ev, res.antis);
  }

  ProcessedRecord rec;
  // An empty history needs an anchor snapshot regardless of the period: a
  // rollback can only restore from a snapshot at or before its position.
  if (best->processed.empty() ||
      best->exec_count % static_cast<std::uint64_t>(current_period()) == 0) {
    ScopedPhaseTimer save_scope(phases_, Phase::kStateSave);
    rec.pre_state = best->obj->snapshot_state();
    state_saves_ += 1;
    state_save_bytes_ += rec.pre_state->byte_size();
    res.snapshot_saved = true;
  }
  best->exec_count += 1;

  std::uint64_t undo_bytes_before = 0;
  if (state_mode_ == StateSaveMode::kIncremental) {
    if (best->undo == nullptr) {
      best->undo = std::make_unique<core::UndoLog>(undo_pool_);
    }
    // (Re-)attach every event: a fallback rollback replaces the state with a
    // detached clone, and snapshots/restores never carry the attachment.
    best->obj->state().set_undo(best->undo.get());
    rec.undo_mark = best->undo->mark();
    best->undo->clear_overflow();
    undo_bytes_before = best->undo->bytes_logged();
  }

  ExecCtx ctx(*best->obj, ev.recv_ts, ev.id, best->rng_seed);
  best->obj->execute(ctx, ev);
  rec.outputs = ctx.take_sends();

  if (state_mode_ == StateSaveMode::kIncremental) {
    rec.undo_ok = !best->undo->overflowed();
    res.undo_bytes = best->undo->bytes_logged() - undo_bytes_before;
    undo_bytes_logged_ += res.undo_bytes;
  }
  win_events_ += 1;
  if (state_save_period_ == 0) recompute_adaptive_period();

  res.executed = true;
  res.ts = ev.recv_ts;
  res.obj = best->obj->id();
  res.id = ev.id;

  if (cancellation_ == CancellationMode::kLazy && !best->lazy.empty()) {
    // Match regenerated sends against held outputs. The deterministic id is
    // NOT enough: re-execution can regenerate the same logical send with
    // different content (its pre-state may differ once the straggler's
    // effects are in). Only a byte-identical message may stay on the wire;
    // a content-divergent one is cancelled (leftover flush below) and the
    // fresh version is sent — the kernel dispatches antis before sends, so
    // the receiver sees anti-then-replacement in FIFO order.
    for (const EventMsg& outp : rec.outputs) {
      bool matched = false;
      std::erase_if(best->lazy, [&](const LazyRecord& held) {
        if (matched || held.output.id != outp.id) return false;
        if (held.output.recv_ts != outp.recv_ts || held.output.dst_obj != outp.dst_obj ||
            held.output.data != outp.data) {
          return false;  // same identity, different content: must cancel it
        }
        matched = true;
        tw_.lazy_matched.add(1);
        return true;
      });
      if (!matched) res.sends.push_back(outp);
    }
    flush_lazy_for_gen(*best, ev.id, res.antis);
  } else {
    res.sends = rec.outputs;  // copy: the record keeps its own for cancellation
  }

  if (latency_ != nullptr && latency_->enabled()) rec.exec_at = latency_clock_();
  rec.ev = std::move(ev);
  best->processed.push_back(std::move(rec));
  events_processed_ += 1;
  tw_.events_processed.add(1);
  return res;
}

std::size_t LogicalProcess::fossil_collect(VirtualTime gvt) {
  if (gvt < max_gvt_seen_) return 0;
  max_gvt_seen_ = gvt;
  std::size_t reclaimed = 0;
  for (auto& [id, rt] : objs_) {
    // Keep every record with recv_ts >= gvt: a rollback to exactly gvt must
    // still find a pre-state.
    auto& q = rt.processed;
    std::size_t keep_from = 0;
    while (keep_from < q.size() && q[keep_from].ev.recv_ts < gvt) ++keep_from;
    // Periodic state saving: the first surviving record must be able to
    // anchor a rollback, so back up to the latest snapshot at or before it.
    while (keep_from < q.size() && keep_from > 0 && q[keep_from].pre_state == nullptr) {
      --keep_from;
    }
    reclaimed += keep_from;
    // Commit latency: the records about to be reclaimed are exactly the
    // events this GVT advance committed. Final gvt == inf carries no usable
    // distance, so the run-drain sweep records nothing.
    if (latency_ != nullptr && latency_->enabled() && !gvt.is_inf() && keep_from > 0) {
      const SimTime commit_now = latency_clock_();
      for (std::size_t i = 0; i < keep_from; ++i) {
        const ProcessedRecord& rec = q[i];
        latency_->record_commit(gvt.t - rec.ev.recv_ts.t,
                                rec.exec_at.ns > 0 ? (commit_now - rec.exec_at).micros()
                                                   : 0.0);
      }
    }
    q.erase(q.begin(), q.begin() + static_cast<std::ptrdiff_t>(keep_from));

    // Undo entries below the first surviving record's mark can never be
    // rewound to again; hand their chunks back to the pool. An emptied
    // history frees the whole log (the next execution re-anchors).
    if (rt.undo != nullptr) {
      if (q.empty()) {
        rt.undo->reset();
      } else if (q.front().undo_mark > rt.undo->first_pos()) {
        rt.undo->release_below(q.front().undo_mark);
      }
    }

    // Orphan antis strictly below GVT can never meet their positive (the
    // positive was NIC-dropped or annihilated); they are garbage now.
    for (auto it = rt.orphan_antis.begin(); it != rt.orphan_antis.end();) {
      if (it->recv_ts < gvt) {
        it = rt.orphan_antis.erase(it);
      } else {
        ++it;
      }
    }
  }
  tw_.fossil_reclaimed.add(static_cast<std::int64_t>(reclaimed));
  return reclaimed;
}

std::uint64_t LogicalProcess::anti_counter_piggyback(ObjectId obj) const {
  return scope_ == RollbackScope::kLp ? lp_antis_processed_ : anti_counter(obj);
}

std::uint64_t LogicalProcess::anti_counter(ObjectId obj) const {
  auto it = objs_.find(obj);
  NW_CHECK(it != objs_.end());
  return it->second.antis_processed;
}

VirtualTime LogicalProcess::last_anti_ts(ObjectId obj) const {
  auto it = objs_.find(obj);
  NW_CHECK(it != objs_.end());
  return it->second.last_anti_ts;
}

std::int64_t LogicalProcess::signature_sum() const {
  std::uint64_t s = 0;  // wraps by design
  for (const auto& [id, rt] : objs_) s += static_cast<std::uint64_t>(rt.obj->state().signature);
  return static_cast<std::int64_t>(s);
}

std::size_t LogicalProcess::total_pending() const { return pending_total_; }

std::size_t LogicalProcess::total_processed_records() const {
  std::size_t n = 0;
  for (const auto& [id, rt] : objs_) n += rt.processed.size();
  return n;
}

std::uint64_t LogicalProcess::lazy_records() const {
  std::uint64_t n = 0;
  for (const auto& [id, rt] : objs_) n += rt.lazy.size();
  return n;
}

std::size_t LogicalProcess::orphan_antis() const {
  std::size_t n = 0;
  for (const auto& [id, rt] : objs_) n += rt.orphan_antis.size();
  return n;
}

}  // namespace nicwarp::warped
