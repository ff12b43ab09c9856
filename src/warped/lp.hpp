// Logical Process: the per-node optimistic simulation engine.
//
// Owns the node's simulation objects, their pending/processed event queues,
// copy-saved states and output records; implements straggler detection,
// rollback with aggressive cancellation (§3.2's baseline behaviour),
// anti-message annihilation (including antis that arrive before their
// positives), and GVT-driven fossil collection.
//
// The LP is purely a virtual-time machine — it knows nothing about hardware
// costs or wall-clock. The Kernel wraps every LP operation in host-CPU tasks
// and charges the cost model.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <unordered_map>
#include <vector>

#include "core/latency.hpp"
#include "core/phase_profiler.hpp"
#include "core/rng.hpp"
#include "core/stats.hpp"
#include "core/types.hpp"
#include "warped/event.hpp"
#include "warped/object.hpp"

namespace nicwarp::warped {

// Rollback granularity.
//  kObject — only the straggler's destination object rolls back (modern,
//            minimal-undo semantics).
//  kLp     — a straggler rolls the WHOLE LP back to its timestamp (the
//            shared-input-queue semantics of 2002-era WARPED deployments).
//            This is the semantics under which the paper's Figure 3(b)
//            cancellation rule — drop ALL queued messages with send_ts
//            beyond the anti's timestamp — is sound.
enum class RollbackScope { kObject, kLp };

// Anti-message strategy on rollback.
//  kAggressive — cancel every undone output immediately (the paper's §3.2
//                baseline, WARPED's "aggressive cancellation" [27]).
//  kLazy       — hold undone outputs; if re-execution regenerates an
//                identical send (deterministic event ids make this an exact
//                test) no anti is ever sent; an anti goes out only when the
//                generator is annihilated or re-executes without
//                regenerating the send. Not combinable with NIC early
//                cancellation (the drop machinery assumes every doomed
//                message gets an anti).
enum class CancellationMode { kAggressive, kLazy };

// State-saving strategy.
//  kCopy        — clone the whole object state every k-th event (WARPED's
//                 copy state saving; k = state_save_period).
//  kIncremental — record-before-write undo logging: mutations through
//                 State::mut() copy old bytes into a pooled undo log, and a
//                 rollback rewinds entries in reverse. Full snapshots are
//                 still cut every k-th event as anchors for the fallback
//                 path (log overflow, state replacement); between them the
//                 log alone carries the history.
enum class StateSaveMode { kCopy, kIncremental };

class LogicalProcess {
 public:
  // `state_save_period` >= 1 fixes the snapshot cadence; 0 selects the
  // adaptive interval (Lin–Lazowska square-root rule driven by the observed
  // events-per-rollback ratio, see current_period()).
  LogicalProcess(NodeId rank, StatsRegistry& stats, std::uint64_t seed,
                 RollbackScope scope = RollbackScope::kObject,
                 CancellationMode cancellation = CancellationMode::kAggressive,
                 std::int64_t state_save_period = 1,
                 StateSaveMode state_mode = StateSaveMode::kCopy);

  void add_object(std::unique_ptr<SimulationObject> obj);
  bool has_object(ObjectId id) const { return objs_.count(id) != 0; }
  std::vector<ObjectId> object_ids() const;
  NodeId rank() const { return rank_; }

  // Runs every object's initialize() at virtual time 0 and returns the
  // events they scheduled (the kernel routes them).
  std::vector<EventMsg> initialize_objects();

  // --- message insertion (local sends and network arrivals) ---
  struct InsertResult {
    bool annihilated{false};
    bool rollback{false};
    std::size_t events_undone{0};
    // Coast-forward replays performed to rebuild state from the nearest
    // snapshot (only > 0 when state_save_period > 1).
    std::size_t events_replayed{0};
    bool stored_orphan{false};
    // Aggressive cancellation: anti-messages for every output of an undone
    // event. The caller dispatches them (possibly suppressing NIC-dropped
    // ones).
    std::vector<EventMsg> antis;
    // Ids of the undone executions, in undo order. Only filled when
    // set_collect_undone(true) — profiling pays for the copies, plain runs
    // never do.
    std::vector<EventId> undone_ids;
  };
  // `from_network` marks messages delivered by the comm stack (as opposed
  // to local sends): only network anti-messages advance the anti counters
  // piggybacked for the NIC, which counts antis at wire arrival.
  InsertResult insert(EventMsg ev, bool from_network = false);

  // --- event processing ---
  bool has_ready_event() const;
  VirtualTime next_event_ts() const;  // inf when idle

  struct ExecResult {
    bool executed{false};
    VirtualTime ts{VirtualTime::zero()};
    ObjectId obj{kInvalidObject};
    EventId id{kInvalidEvent};  // the executed event (parent of its sends)
    std::vector<EventMsg> sends;
    // kLazy: antis for held outputs whose generators are now past (flushed
    // because execution moved beyond them without regenerating).
    std::vector<EventMsg> antis;
    // True when this step cut a full state snapshot (always at period 1;
    // sparse under periodic/adaptive saving). The kernel charges the save
    // cost per actual snapshot in those modes.
    bool snapshot_saved{false};
    // kIncremental: bytes the executed event appended to the undo log (the
    // kernel charges the per-byte logging cost).
    std::uint64_t undo_bytes{0};
  };
  // Executes the globally-least pending event (canonical EventOrder).
  ExecResult execute_next();

  // --- GVT consumers ---
  VirtualTime lvt() const;  // min pending recv_ts across objects (inf if idle)
  // Reclaims history strictly below gvt; returns records reclaimed.
  std::size_t fossil_collect(VirtualTime gvt);

  // --- early-cancellation hooks ---
  // Per-object counter of anti-messages this LP has processed for that
  // object (as destination); piggybacked on the object's outgoing messages.
  std::uint64_t anti_counter(ObjectId obj) const;
  // Timestamp of the last anti processed for `obj` (the paper's CM
  // piggyback field).
  VirtualTime last_anti_ts(ObjectId obj) const;
  // Counter to piggyback on outgoing messages from `obj`: per-object under
  // kObject scope, LP-wide under kLp scope (must match the cancellation
  // firmware's scope).
  std::uint64_t anti_counter_piggyback(ObjectId obj) const;
  RollbackScope scope() const { return scope_; }

  // --- metrics / invariant hooks ---
  std::uint64_t events_processed() const { return events_processed_; }
  std::uint64_t lazy_records() const;
  std::uint64_t events_rolled_back() const { return events_rolled_back_; }
  std::uint64_t rollbacks() const { return rollbacks_; }
  // --- heatmap counters (EntityStats harvest) ---
  std::uint64_t max_rollback_depth() const { return max_rollback_depth_; }
  std::uint64_t events_replayed() const { return events_replayed_; }
  std::uint64_t state_saves() const { return state_saves_; }
  std::uint64_t state_save_bytes() const { return state_save_bytes_; }
  // kIncremental accounting: bytes appended to undo logs, rollbacks served
  // purely by rewinding them (no coast-forward), and pool high-water mark.
  std::uint64_t undo_bytes_logged() const { return undo_bytes_logged_; }
  std::uint64_t undo_rewinds() const { return undo_rewinds_; }
  std::size_t undo_pool_peak_chunks() const { return undo_pool_.peak(); }
  StateSaveMode state_mode() const { return state_mode_; }
  // Snapshot cadence currently in force: the fixed period, or the adaptive
  // estimate when state_save_period == 0.
  std::int64_t effective_period() const { return current_period(); }
  std::uint64_t committed_lower_bound() const {
    return events_processed_ - events_rolled_back_;
  }
  std::int64_t signature_sum() const;
  // Enables O(queue) duplicate-positive detection on every insert — used by
  // the test suite to catch cancellation pairing violations at their source.
  void set_paranoia(bool on) { paranoia_ = on; }
  // Makes InsertResult carry the ids of undone executions (profiler food).
  void set_collect_undone(bool on) { collect_undone_ = on; }
  // Commit-latency recording: `clock` supplies the node's engine time (the
  // LP itself is purely virtual-time; the kernel injects hardware context).
  // Null recorder disables. Samples are taken at fossil collection — an
  // event "commits" when GVT passes it.
  void set_latency(LatencyRecorder* recorder, std::function<SimTime()> clock) {
    latency_ = recorder;
    latency_clock_ = std::move(clock);
  }
  // Wall-clock phase attribution (state saves, rollbacks). Null restores the
  // shared disabled profiler.
  void set_phases(PhaseProfiler* phases) {
    phases_ = phases != nullptr ? phases : &PhaseProfiler::null_profiler();
  }
  std::size_t total_pending() const;
  std::size_t total_processed_records() const;
  std::size_t orphan_antis() const;
  VirtualTime max_gvt_seen() const { return max_gvt_seen_; }

 private:
  struct ProcessedRecord {
    EventMsg ev;
    // State before executing ev; null when periodic state saving skipped
    // this record (rollback then coast-forwards from an earlier snapshot).
    std::unique_ptr<State> pre_state;
    std::vector<EventMsg> outputs;  // for anti generation / lazy matching
    // Engine clock at execution; stamped only while latency recording is on
    // (zero otherwise). Feeds the commit_us histogram at fossil collection.
    SimTime exec_at{SimTime::zero()};
    // kIncremental: undo-log position before this event executed. Rewinding
    // to it restores exactly this record's pre-state — valid only while
    // undo_ok holds and the mark is still >= the log's first_pos() (reset /
    // fossil trim make marks stale).
    core::UndoLog::Mark undo_mark{0};
    // False when the log overflowed mid-event (capped pool) or the LP runs
    // copy state saving; such records roll back via snapshot+coast-forward.
    bool undo_ok{false};
  };
  // kLazy: an output of an undone event, held until its generator either
  // regenerates it (no anti) or disappears (anti now).
  struct LazyRecord {
    EventMsg output;
    EventMsg gen;  // generating event (key fields only)
  };
  using PendingQueue = std::multiset<EventMsg, EventOrder>;

  struct ObjRt {
    SimulationObject* obj{nullptr};
    // Seed of the object's per-execution RNG streams: the LP seed mixed with
    // the hash of the object's name, taken once in add_object.
    std::uint64_t rng_seed{0};
    PendingQueue pending;
    // Hot-path index: event id -> its node in `pending`, so anti-message
    // annihilation is a hash probe instead of an O(pending) scan. Multiset
    // iterators are node-stable, so entries survive unrelated mutations.
    std::unordered_map<EventId, PendingQueue::iterator> pending_by_id;
    std::deque<ProcessedRecord> processed;  // ascending EventOrder
    std::multiset<EventMsg, EventOrder> orphan_antis;  // antis without positives
    std::vector<LazyRecord> lazy;  // kLazy: held outputs, ascending gen order
    // kIncremental: this object's undo-log view over the LP's shared chunk
    // pool (created on first execution, null under kCopy).
    std::unique_ptr<core::UndoLog> undo;
    std::uint64_t antis_processed{0};
    std::uint64_t exec_count{0};   // drives the state-saving period
    VirtualTime last_anti_ts{VirtualTime::zero()};
    // Lazy ready-heap bookkeeping (see ready_heap_): the head key this
    // object last pushed, if any. Only the entry matching (adv_ts, adv_id)
    // is live; older entries for this object are discarded on pop.
    bool head_advertised{false};
    VirtualTime adv_ts{VirtualTime::zero()};
    EventId adv_id{kInvalidEvent};
  };

  // Rolls `rt` back so every processed record at position >= pos is undone;
  // appends the undone records' cancellation antis to `out` (kAggressive) or
  // holds them as lazy records (kLazy). Returns events undone; adds
  // coast-forward replays to `replayed`.
  std::size_t rollback_to(ObjRt& rt, std::size_t pos, std::vector<EventMsg>& out,
                          std::size_t& replayed, std::vector<EventId>* undone_ids);
  // Re-executes `ev` against the object's current state without emitting
  // sends (used to rebuild state between a snapshot and the rollback point).
  void coast_forward(ObjRt& rt, const EventMsg& ev);
  // kLazy: resolves held outputs for the event about to execute / just
  // annihilated. See lp.cpp.
  void flush_lazy_before(ObjRt& rt, const EventMsg& next, std::vector<EventMsg>& antis);
  void flush_lazy_for_gen(ObjRt& rt, EventId gen_id, std::vector<EventMsg>& antis);
  // kLp scope: rolls EVERY object back past `pivot` (canonical order).
  std::size_t rollback_all(const EventMsg& pivot, std::vector<EventMsg>& out,
                           std::size_t& replayed, std::vector<EventId>* undone_ids);
  // First processed position in `rt` at or after `pivot`.
  static std::size_t rollback_pos(const ObjRt& rt, const EventMsg& pivot);
  bool is_straggler(const ObjRt& rt, const EventMsg& ev) const;
  // Snapshot cadence in force (fixed period, or the adaptive estimate).
  std::int64_t current_period() const {
    return state_save_period_ > 0 ? state_save_period_ : eff_period_;
  }
  // Adaptive interval: re-derives eff_period_ from the decayed event /
  // rollback window (Lin–Lazowska square-root rule).
  void recompute_adaptive_period();

  ObjRt& runtime_for(ObjectId id);

  // --- pending-queue maintenance (keeps pending_by_id, pending_total_ and
  // the ready-heap advertisement in sync; ALL pending mutations go through
  // these) ---
  void pending_insert(ObjRt& rt, EventMsg ev);
  void pending_erase(ObjRt& rt, PendingQueue::iterator it);
  // Finds the pending positive with this id, pending.end() if absent.
  PendingQueue::iterator pending_find(ObjRt& rt, EventId id);
  // Pushes the object's current least pending event onto the ready-heap
  // (no-op when pending is empty).
  void advertise_head(ObjRt& rt);

  // The tw.* counters this LP records, each named after its key.
  struct Counters {
    explicit Counters(StatsRegistry& s)
        : antis_received(s, "tw.antis_received"),
          annihilations(s, "tw.annihilations"),
          anti_rollbacks(s, "tw.anti_rollbacks"),
          orphan_antis(s, "tw.orphan_antis"),
          straggler_rollbacks(s, "tw.straggler_rollbacks"),
          undo_rewinds(s, "tw.undo_rewinds"),
          events_replayed(s, "tw.events_replayed"),
          rollbacks(s, "tw.rollbacks"),
          events_rolled_back(s, "tw.events_rolled_back"),
          lazy_flush_before(s, "tw.lazy_flush_before"),
          lazy_cancelled(s, "tw.lazy_cancelled"),
          lazy_matched(s, "tw.lazy_matched"),
          events_processed(s, "tw.events_processed"),
          fossil_reclaimed(s, "tw.fossil_reclaimed") {}
    CounterHandle antis_received;
    CounterHandle annihilations;
    CounterHandle anti_rollbacks;
    CounterHandle orphan_antis;
    CounterHandle straggler_rollbacks;
    CounterHandle undo_rewinds;
    CounterHandle events_replayed;
    CounterHandle rollbacks;
    CounterHandle events_rolled_back;
    CounterHandle lazy_flush_before;
    CounterHandle lazy_cancelled;
    CounterHandle lazy_matched;
    CounterHandle events_processed;
    CounterHandle fossil_reclaimed;
  };

  NodeId rank_;
  Counters tw_;
  std::uint64_t seed_;
  RollbackScope scope_;
  CancellationMode cancellation_;
  std::int64_t state_save_period_;  // 0 = adaptive (eff_period_ governs)
  StateSaveMode state_mode_;
  // Shared slab for every object's undo log (kIncremental). Capped so a
  // runaway log degrades to snapshot+coast-forward instead of eating memory.
  core::UndoChunkPool undo_pool_;
  // Adaptive-interval state: current estimate plus a decayed observation
  // window of executions and rollbacks. Driven purely by deterministic
  // counters, so the cadence is identical across reruns of a seed.
  std::int64_t eff_period_{8};
  std::uint64_t win_events_{0};
  std::uint64_t win_rollbacks_{0};
  bool paranoia_{false};
  bool collect_undone_{false};
  std::uint64_t lp_antis_processed_{0};
  VirtualTime lp_last_anti_ts_{VirtualTime::zero()};
  std::map<ObjectId, ObjRt> objs_;
  std::vector<std::unique_ptr<SimulationObject>> storage_;

  // Lazy min-heap over per-object queue heads, ordered by the canonical
  // EventOrder key of each object's least pending event. execute_next pops
  // the global minimum in O(log #objects) instead of scanning every object.
  // Entries are advertisements, not truth: insertions that lower an
  // object's head push a fresh entry (superseding the old one), removals
  // leave stale entries behind, and pops validate against the object's
  // actual head, discarding or re-advertising as needed — "lazy repair".
  struct HeadEntry {
    VirtualTime recv_ts;
    ObjectId dst_obj;
    EventId id;
    ObjRt* rt;
  };
  struct HeadLater {  // std::push_heap is a max-heap; invert to get a min-heap
    bool operator()(const HeadEntry& a, const HeadEntry& b) const {
      if (a.recv_ts != b.recv_ts) return a.recv_ts > b.recv_ts;
      if (a.dst_obj != b.dst_obj) return a.dst_obj > b.dst_obj;
      return a.id > b.id;
    }
  };
  std::vector<HeadEntry> ready_heap_;
  std::size_t pending_total_{0};  // sum of pending.size() across objects

  std::uint64_t events_processed_{0};
  std::uint64_t events_rolled_back_{0};
  std::uint64_t rollbacks_{0};
  std::uint64_t max_rollback_depth_{0};  // largest single-rollback undo count
  std::uint64_t events_replayed_{0};     // coast-forward re-executions
  std::uint64_t state_saves_{0};
  std::uint64_t state_save_bytes_{0};
  std::uint64_t undo_bytes_logged_{0};  // kIncremental: total bytes recorded
  std::uint64_t undo_rewinds_{0};       // rollbacks served without replay
  VirtualTime max_gvt_seen_{VirtualTime::zero()};

  LatencyRecorder* latency_{nullptr};
  std::function<SimTime()> latency_clock_;
  PhaseProfiler* phases_{&PhaseProfiler::null_profiler()};
};

}  // namespace nicwarp::warped
