#include "micro.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <deque>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/stats.hpp"
#include "core/types.hpp"
#include "sim/engine.hpp"
#include "sim/server.hpp"
#include "warped/lp.hpp"
#include "warped/object.hpp"

namespace nicwarp::bench {

namespace {

using nicwarp::SimTime;
using nicwarp::VirtualTime;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

// Deterministic workload mixer (same constants as core splitmix usage).
std::uint64_t mix(std::uint64_t& s) {
  s += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = s;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// ---------------------------------------------------------------------------
// Engine churn: descriptor tasks vs the pre-optimization reference.
// ---------------------------------------------------------------------------

// Faithful copy of the scheduler before the allocation-free engine: binary heap
// of (when,seq) + id->std::function hash map. Kept ONLY as the baseline half
// of micro/engine/run_churn_legacy, so the BENCH json always shows what the
// descriptor heap buys.
class LegacyEngine {
 public:
  using Callback = std::function<void()>;

  SimTime now() const { return now_; }

  void schedule(SimTime delay, Callback fn) {
    const std::uint64_t id = next_seq_++;
    heap_.push(HeapEntry{now_ + delay, id});
    tasks_.emplace(id, std::move(fn));
  }

  std::uint64_t run_until(SimTime deadline) {
    std::uint64_t ran = 0;
    while (!heap_.empty()) {
      const HeapEntry top = heap_.top();
      auto it = tasks_.find(top.seq);
      if (top.when > deadline) break;
      heap_.pop();
      Callback fn = std::move(it->second);
      tasks_.erase(it);
      now_ = top.when;
      fn();
      ++ran;
    }
    return ran;
  }

 private:
  struct HeapEntry {
    SimTime when;
    std::uint64_t seq;
    bool operator>(const HeapEntry& o) const {
      if (when != o.when) return when > o.when;
      return seq > o.seq;
    }
  };
  SimTime now_{SimTime::zero()};
  std::uint64_t next_seq_{1};
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<>> heap_;
  std::unordered_map<std::uint64_t, Callback> tasks_;
};

// The churn workload, identical across engines: 64 self-rescheduling actors;
// each activation folds the checksum and schedules its successor 1..97 ns
// later — the schedule/pop-min cycle every server completion drives. The
// engine twin schedules Target descriptors {actor, salt}; the legacy twin
// schedules 24-byte closures, past std::function's inline buffer, as the
// kernel's host-task closures were.
constexpr std::int64_t kTarget = 3000000;  // executed activations
constexpr int kActors = 64;

struct ChurnTally {
  std::int64_t remaining{kTarget};
  std::int64_t sum{0};
  std::uint64_t rng{12345};

  // Folds one activation; returns false once the budget is spent, else the
  // successor's delay and salt.
  bool step(std::uint64_t id, std::uint64_t salt, std::int64_t& delay,
            std::uint64_t& next_salt) {
    sum += static_cast<std::int64_t>(id * 31 + (salt & 0xFF));
    if (remaining-- <= 0) return false;
    next_salt = mix(rng);
    delay = static_cast<std::int64_t>(1 + next_salt % 97);
    return true;
  }
};

MicroResult engine_run_churn() {
  // arg = actor id in the low 32 bits, salt & 0xFF above them.
  struct Actors final : sim::Target {
    sim::Engine eng;
    ChurnTally tally;
    void fire(std::uint64_t arg) override {
      std::int64_t delay = 0;
      std::uint64_t salt = 0;
      const std::uint64_t id = arg & 0xFFFFFFFFu;
      if (!tally.step(id, arg >> 32, delay, salt)) return;
      eng.schedule(SimTime{delay}, *this, id | ((salt & 0xFF) << 32));
    }
  };
  auto st = std::make_unique<Actors>();

  const auto t0 = std::chrono::steady_clock::now();
  for (int a = 0; a < kActors; ++a) {
    st->eng.schedule(SimTime{1 + a}, *st, static_cast<std::uint64_t>(a));
  }
  const std::uint64_t ran = st->eng.run();

  MicroResult r;
  r.wall_seconds = seconds_since(t0);
  r.ops = static_cast<std::int64_t>(ran);
  r.checksum = st->tally.sum ^ st->eng.now().ns;
  return r;
}

MicroResult engine_run_churn_legacy() {
  struct St {
    LegacyEngine eng;
    ChurnTally tally;
  };
  auto st = std::make_unique<St>();

  struct Actor {
    St* s;
    std::uint64_t id;
    std::uint64_t salt;
    void operator()() {
      std::int64_t delay = 0;
      std::uint64_t next = 0;
      if (!s->tally.step(id, salt, delay, next)) return;
      s->eng.schedule(SimTime{delay}, Actor{s, id, next});
    }
  };

  const auto t0 = std::chrono::steady_clock::now();
  for (int a = 0; a < kActors; ++a) {
    st->eng.schedule(SimTime{1 + a}, Actor{st.get(), static_cast<std::uint64_t>(a), 0});
  }
  const std::uint64_t ran = st->eng.run_until(SimTime::max());

  MicroResult r;
  r.wall_seconds = seconds_since(t0);
  r.ops = static_cast<std::int64_t>(ran);
  r.checksum = st->tally.sum ^ st->eng.now().ns;
  return r;
}

// ---------------------------------------------------------------------------
// Server job churn: descriptor jobs vs the deque-of-closures Server.
// ---------------------------------------------------------------------------

// Faithful copy of sim::Server before its jobs became descriptors: a
// std::deque of {WorkFn, CompletionFn} closures, with a constant cost
// wrapped in a WorkFn and an engine closure per completion. Kept ONLY as the
// baseline half of micro/server/job_churn_legacy.
class LegacyServer {
 public:
  using WorkFn = SmallFn<SimTime(), 64>;
  using CompletionFn = SmallFn<void(), 64>;

  LegacyServer(sim::Engine& engine, std::string name, StatsRegistry* stats)
      : engine_(engine), name_(std::move(name)), stats_(stats) {
    if (stats_ != nullptr) {
      jobs_ = CounterHandle(*stats_, name_.c_str(), ".jobs");
      busy_ns_ = CounterHandle(*stats_, name_.c_str(), ".busy_ns");
    }
  }
  LegacyServer(const LegacyServer&) = delete;
  LegacyServer& operator=(const LegacyServer&) = delete;

  void submit(SimTime cost, CompletionFn on_complete) {
    submit_dynamic([cost] { return cost; }, std::move(on_complete));
  }

  void submit_dynamic(WorkFn work, CompletionFn on_complete) {
    queue_.push_back(Job{std::move(work), std::move(on_complete)});
    if (!busy_) start_next();
  }

 private:
  void start_next() {
    if (queue_.empty()) {
      busy_ = false;
      return;
    }
    busy_ = true;
    const SimTime cost = queue_.front().work();
    engine_.schedule(cost, [this, cost] { finish(cost); });
  }

  void finish(SimTime cost) {
    if (stats_ != nullptr) {
      jobs_.add(1);
      busy_ns_.add(cost.ns);
    }
    CompletionFn fn = std::move(queue_.front().on_complete);
    queue_.pop_front();
    if (fn) fn();
    start_next();
  }

  sim::Engine& engine_;
  std::string name_;
  StatsRegistry* stats_;
  CounterHandle jobs_;
  CounterHandle busy_ns_;
  struct Job {
    WorkFn work;
    CompletionFn on_complete;
  };
  std::deque<Job> queue_;
  bool busy_{false};
};

// The pipeline, identical across servers: 256 tokens circulate through 8
// FIFO servers, the shape of a packet's host -> bus -> NIC -> link -> NIC ->
// bus -> host walk. Even stages have a fixed cost; odd stages give theirs at
// service start, like the NIC firmware hooks. Each completion folds the
// checksum and submits the token to the next stage.
constexpr std::uint32_t kPipeStages = 8;
constexpr std::uint64_t kPipeTokens = 256;
constexpr std::int64_t kPipeJobs = 2000000;

SimTime pipe_cost(std::uint32_t stage, std::uint64_t token) {
  return SimTime{static_cast<std::int64_t>(1 + ((token * 0x9E3779B97F4A7C15ULL) >> 59) + stage)};
}

template <typename Derived, typename ServerT>
struct Pipeline {
  sim::Engine eng;
  StatsRegistry stats;
  std::vector<std::unique_ptr<ServerT>> servers;
  std::int64_t jobs_left{kPipeJobs};
  std::int64_t sum{0};

  void fold(std::uint32_t stage, std::uint64_t token) {
    sum += static_cast<std::int64_t>((token ^ stage) + static_cast<std::uint64_t>(eng.now().ns));
  }

  MicroResult run() {
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint32_t k = 0; k < kPipeStages; ++k) {
      servers.push_back(std::make_unique<ServerT>(eng, "pipe" + std::to_string(k), &stats));
    }
    for (std::uint64_t t = 0; t < kPipeTokens; ++t) {
      static_cast<Derived*>(this)->submit(static_cast<std::uint32_t>(t % kPipeStages),
                                          t << 32);
    }
    eng.run();
    MicroResult r;
    r.wall_seconds = seconds_since(t0);
    for (std::uint32_t k = 0; k < kPipeStages; ++k) {
      r.ops += stats.value("pipe" + std::to_string(k) + ".jobs");
    }
    r.checksum = sum ^ eng.now().ns;
    return r;
  }
};

struct DescriptorPipe final : Pipeline<DescriptorPipe, sim::Server>, sim::Owner {
  void submit(std::uint32_t stage, std::uint64_t token) {
    if (jobs_left-- <= 0) return;
    if (stage % 2 == 0) {
      servers[stage]->submit(pipe_cost(stage, token), *this, stage, token);
    } else {
      servers[stage]->submit_dynamic(*this, stage, token);
    }
  }
  SimTime start_job(std::uint32_t stage, std::uint64_t token) override {
    return pipe_cost(stage, token);
  }
  void finish_job(std::uint32_t stage, std::uint64_t token) override {
    fold(stage, token);
    submit((stage + 1) % kPipeStages, token + 1);
  }
};

struct LegacyPipe final : Pipeline<LegacyPipe, LegacyServer> {
  void submit(std::uint32_t stage, std::uint64_t token) {
    if (jobs_left-- <= 0) return;
    auto done = [this, stage, token] {
      fold(stage, token);
      submit((stage + 1) % kPipeStages, token + 1);
    };
    if (stage % 2 == 0) {
      servers[stage]->submit(pipe_cost(stage, token), done);
    } else {
      servers[stage]->submit_dynamic([stage, token] { return pipe_cost(stage, token); },
                                     done);
    }
  }
};

template <typename Pipe>
MicroResult server_job_churn() {
  return std::make_unique<Pipe>()->run();
}

// ---------------------------------------------------------------------------
// LogicalProcess churn.
// ---------------------------------------------------------------------------

struct MicroState : warped::CloneableState<MicroState> {
  std::int64_t acc{0};
};

// `fanout` false: pure state update. true: every execution also sends one
// event onward (ring topology), feeding the rollback bench's queues.
class MicroObject final : public warped::SimulationObject {
 public:
  MicroObject(ObjectId id, ObjectId ring, bool fanout)
      : SimulationObject(id, "m" + std::to_string(id), std::make_unique<MicroState>()),
        ring_(ring),
        fanout_(fanout) {}

  void initialize(warped::ObjectContext&) override {}

  void execute(warped::ObjectContext& ctx, const warped::EventMsg& ev) override {
    auto& st = state_as<MicroState>();
    st.acc += ev.data.empty() ? 1 : ev.data[0];
    ctx.fold_signature(st.acc * 17 + ctx.now().t);
    if (fanout_) {
      ctx.send(ring_, ctx.now() + 3 + (st.acc & 7), {st.acc & 1023});
    }
  }

 private:
  ObjectId ring_;
  bool fanout_;
};

warped::EventMsg external_event(ObjectId dst, std::int64_t recv,
                                std::uint64_t uniq) {
  warped::EventMsg ev;
  ev.src_obj = 9999;
  ev.dst_obj = dst;
  ev.send_ts = VirtualTime{recv - 1};
  ev.recv_ts = VirtualTime{recv};
  ev.id = warped::make_event_id(warped::make_root_id(dst), 9999,
                                static_cast<std::uint32_t>(uniq));
  ev.data = {static_cast<std::int64_t>(uniq & 255)};
  return ev;
}

// Insert/annihilate churn: batches of positives, half of which are killed
// by antis while still pending (the indexed-annihilation fast path), the
// rest executed.
MicroResult lp_insert_annihilate() {
  constexpr int kObjects = 32;
  constexpr int kRounds = 150;
  constexpr int kBatch = 2000;
  StatsRegistry stats;
  warped::LogicalProcess lp(0, stats, 42);
  for (int o = 0; o < kObjects; ++o) {
    lp.add_object(std::make_unique<MicroObject>(o, (o + 1) % kObjects, false));
  }

  std::int64_t ops = 0;
  std::uint64_t uniq = 0;
  std::int64_t base = 1;
  std::uint64_t rng = 99;

  const auto t0 = std::chrono::steady_clock::now();
  for (int round = 0; round < kRounds; ++round) {
    std::vector<warped::EventMsg> batch;
    batch.reserve(kBatch);
    for (int i = 0; i < kBatch; ++i) {
      const std::uint64_t r = mix(rng);
      batch.push_back(external_event(static_cast<ObjectId>(r % kObjects),
                                     base + static_cast<std::int64_t>(r % 5000),
                                     ++uniq));
    }
    for (const auto& ev : batch) {
      lp.insert(ev);
      ++ops;
    }
    // Annihilate every other one while it is still pending.
    for (std::size_t i = 0; i < batch.size(); i += 2) {
      lp.insert(batch[i].as_anti());
      ++ops;
    }
    while (lp.has_ready_event()) {
      lp.execute_next();
      ++ops;
    }
    base += 5001;  // next round strictly in the future: no stragglers here
  }

  MicroResult r;
  r.wall_seconds = seconds_since(t0);
  r.ops = ops;
  r.checksum = lp.signature_sum() ^
               static_cast<std::int64_t>(lp.events_processed());
  return r;
}

// Rollback churn: execute a ring workload, then land a straggler under the
// processed horizon every round — rollback, anti generation, re-insertion,
// and annihilation of the antis against their positives.
MicroResult lp_rollback_churn() {
  constexpr int kObjects = 16;
  constexpr int kRounds = 400;
  StatsRegistry stats;
  warped::LogicalProcess lp(0, stats, 42, warped::RollbackScope::kObject);
  for (int o = 0; o < kObjects; ++o) {
    lp.add_object(std::make_unique<MicroObject>(o, (o + 1) % kObjects, true));
  }

  std::int64_t ops = 0;
  std::uint64_t uniq = 0;
  std::uint64_t rng = 7;

  // Deliver a batch of messages (sends or antis) transitively: every insert
  // can trigger an anti-rollback whose own antis must also land, or the
  // bench would leak ghost positives between rounds.
  std::deque<warped::EventMsg> inbox;
  auto deliver_all = [&] {
    while (!inbox.empty()) {
      warped::EventMsg m = std::move(inbox.front());
      inbox.pop_front();
      auto res = lp.insert(std::move(m));
      ++ops;
      for (auto& a : res.antis) inbox.push_back(std::move(a));
    }
  };

  // Seed each object, then keep the ring alive by reinserting sends.
  std::int64_t horizon = 1;
  const auto t0 = std::chrono::steady_clock::now();
  for (int o = 0; o < kObjects; ++o) {
    lp.insert(external_event(o, horizon + o, ++uniq));
  }
  for (int round = 0; round < kRounds; ++round) {
    // Drain up to a bounded number of executions, routing sends back in.
    for (int step = 0; step < 400 && lp.has_ready_event(); ++step) {
      auto ex = lp.execute_next();
      ++ops;
      horizon = std::max(horizon, ex.ts.t);
      for (auto& s : ex.sends) inbox.push_back(std::move(s));
      for (auto& a : ex.antis) inbox.push_back(std::move(a));
      deliver_all();
    }
    // Straggler: below the processed horizon, forcing a rollback whose
    // antis we deliver right back (annihilation against pending positives).
    const std::uint64_t r = mix(rng);
    const std::int64_t ts = std::max<std::int64_t>(1, horizon - 40);
    inbox.push_back(
        external_event(static_cast<ObjectId>(r % kObjects), ts, ++uniq));
    deliver_all();
  }

  MicroResult r;
  r.wall_seconds = seconds_since(t0);
  r.ops = ops;
  r.checksum = lp.signature_sum() ^
               static_cast<std::int64_t>(lp.events_processed()) ^
               static_cast<std::int64_t>(lp.rollbacks() * 131);
  return r;
}

// ---------------------------------------------------------------------------
// State-saving churn: incremental undo-log vs the full-copy discipline it
// replaced, over an identical rollback-heavy schedule with a deliberately
// fat (2 KB) state. The legacy twin runs the exact pre-PR configuration
// (copy mode, period 1), so the BENCH json always shows what the undo log
// buys: a few dozen logged bytes per event instead of a 2 KB clone.
// ---------------------------------------------------------------------------

struct ChurnState : warped::CloneableState<ChurnState> {
  std::array<std::int64_t, 256> slots{};
  std::int64_t cursor{0};
};

class ChurnObject final : public warped::SimulationObject {
 public:
  ChurnObject(ObjectId id, ObjectId ring)
      : SimulationObject(id, "c" + std::to_string(id),
                         std::make_unique<ChurnState>()),
        ring_(ring) {}

  void initialize(warped::ObjectContext&) override {}

  void execute(warped::ObjectContext& ctx, const warped::EventMsg& ev) override {
    auto& st = state_as<ChurnState>();
    const std::int64_t v = ev.data.empty() ? 1 : ev.data[0];
    // Touch two slots plus the cursor: a sparse write set against a fat
    // state, the regime incremental saving is built for.
    const auto a = static_cast<std::size_t>((st.cursor + v) & 255);
    const auto b = static_cast<std::size_t>((st.cursor * 31 + v + 1) & 255);
    st.mut(st.slots[a]) += v + 1;
    st.mut(st.slots[b]) ^= st.slots[a] + 0x9E3779B9;
    st.mut(st.cursor) = st.slots[b] & 0x7FFFFFFF;
    ctx.fold_signature(st.slots[a] * 17 + ctx.now().t);
    ctx.send(ring_, ctx.now() + 3 + (st.slots[a] & 7), {st.slots[a] & 1023});
  }

 private:
  ObjectId ring_;
};

// Same shape as lp_rollback_churn: ring fan-out plus a per-round straggler
// under the horizon. Both state-saving modes run this byte-for-byte identical
// schedule, so their checksums must match — the bench doubles as an
// equivalence check between undo-replay and snapshot-restore rollback.
MicroResult lp_state_churn(warped::StateSaveMode mode, std::int64_t period) {
  constexpr int kObjects = 16;
  constexpr int kRounds = 250;
  StatsRegistry stats;
  warped::LogicalProcess lp(0, stats, 42, warped::RollbackScope::kObject,
                            warped::CancellationMode::kAggressive, period, mode);
  for (int o = 0; o < kObjects; ++o) {
    lp.add_object(std::make_unique<ChurnObject>(o, (o + 1) % kObjects));
  }

  std::int64_t ops = 0;
  std::uint64_t uniq = 0;
  std::uint64_t rng = 7;

  std::deque<warped::EventMsg> inbox;
  auto deliver_all = [&] {
    while (!inbox.empty()) {
      warped::EventMsg m = std::move(inbox.front());
      inbox.pop_front();
      auto res = lp.insert(std::move(m));
      ++ops;
      for (auto& a : res.antis) inbox.push_back(std::move(a));
    }
  };

  std::int64_t horizon = 1;
  const auto t0 = std::chrono::steady_clock::now();
  for (int o = 0; o < kObjects; ++o) {
    lp.insert(external_event(o, horizon + o, ++uniq));
  }
  for (int round = 0; round < kRounds; ++round) {
    for (int step = 0; step < 400 && lp.has_ready_event(); ++step) {
      auto ex = lp.execute_next();
      ++ops;
      horizon = std::max(horizon, ex.ts.t);
      for (auto& s : ex.sends) inbox.push_back(std::move(s));
      for (auto& a : ex.antis) inbox.push_back(std::move(a));
      deliver_all();
    }
    const std::uint64_t r = mix(rng);
    const std::int64_t ts = std::max<std::int64_t>(1, horizon - 40);
    inbox.push_back(
        external_event(static_cast<ObjectId>(r % kObjects), ts, ++uniq));
    deliver_all();
  }

  MicroResult r;
  r.wall_seconds = seconds_since(t0);
  r.ops = ops;
  r.checksum = lp.signature_sum() ^
               static_cast<std::int64_t>(lp.events_processed()) ^
               static_cast<std::int64_t>(lp.rollbacks() * 131);
  return r;
}

MicroResult lp_state_churn_incremental() {
  // Period 0 = adaptive checkpoint interval.
  return lp_state_churn(warped::StateSaveMode::kIncremental, 0);
}

MicroResult lp_state_churn_legacy() {
  return lp_state_churn(warped::StateSaveMode::kCopy, 1);
}

}  // namespace

const std::vector<MicroBench>& micro_benches() {
  static const std::vector<MicroBench> kBenches = [] {
    std::vector<MicroBench> v = {
        {"micro/engine/run_churn", engine_run_churn},
        {"micro/engine/run_churn_legacy", engine_run_churn_legacy},
        {"micro/server/job_churn", server_job_churn<DescriptorPipe>},
        {"micro/server/job_churn_legacy", server_job_churn<LegacyPipe>},
        {"micro/lp/insert_annihilate", lp_insert_annihilate},
        {"micro/lp/rollback_churn", lp_rollback_churn},
        {"micro/lp/state_churn", lp_state_churn_incremental},
        {"micro/lp/state_churn_legacy", lp_state_churn_legacy},
    };
    const auto& comm = micro_comm_benches();
    v.insert(v.end(), comm.begin(), comm.end());
    return v;
  }();
  return kBenches;
}

}  // namespace nicwarp::bench
