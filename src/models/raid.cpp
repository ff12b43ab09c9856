#include "models/raid.hpp"

#include "core/assert.hpp"

namespace nicwarp::models {

namespace {

using warped::CloneableState;
using warped::EventMsg;
using warped::ObjectContext;
using warped::SimulationObject;

// Message kinds carried in data[0].
enum RaidMsg : std::int64_t { kIssue = 1, kRequest = 2, kForwarded = 3, kReply = 4 };

// ---------------------------------------------------------------------------
// Source: issues requests, collects replies.
// ---------------------------------------------------------------------------
struct SourceState : CloneableState<SourceState> {
  std::int64_t issued{0};
  std::int64_t replies{0};
};

class Source final : public SimulationObject {
 public:
  Source(ObjectId id, const RaidParams& p, std::int64_t quota, ObjectId first_fork)
      : SimulationObject(id, "raid.source" + std::to_string(id),
                         std::make_unique<SourceState>()),
        p_(p),
        quota_(quota),
        first_fork_(first_fork) {}

  void initialize(ObjectContext& ctx) override {
    if (quota_ > 0) {
      ctx.send(id(), VirtualTime{1 + static_cast<std::int64_t>(ctx.rng().uniform(0, 9))},
               {kIssue});
    }
  }

  void execute(ObjectContext& ctx, const EventMsg& ev) override {
    auto& st = state_as<SourceState>();
    switch (ev.data.at(0)) {
      case kIssue: {
        if (st.issued >= quota_) return;
        st.mut(st.issued) += 1;
        const std::int64_t block = ctx.rng().uniform(0, 1 << 20);
        const ObjectId fork =
            first_fork_ + static_cast<ObjectId>(ctx.rng().uniform(0, p_.forks - 1));
        ctx.send(fork, ctx.now() + ctx.rng().uniform(p_.fork_delay_min, p_.fork_delay_max),
                 {kRequest, static_cast<std::int64_t>(id()), st.issued, block});
        if (st.issued < quota_) {
          ctx.send(id(), ctx.now() + ctx.rng().uniform(p_.think_min, p_.think_max),
                   {kIssue});
        }
        ctx.fold_signature(static_cast<std::int64_t>(ev.id) ^ ctx.now().t);
        return;
      }
      case kReply: {
        st.mut(st.replies) += 1;
        // Reply payload: [kReply, source, seq, completion_ts]
        ctx.fold_signature(ev.data.at(2) * 1315423911LL + ev.data.at(3));
        return;
      }
      default:
        NW_UNREACHABLE("bad RAID message at source");
    }
  }

 private:
  RaidParams p_;
  std::int64_t quota_;
  ObjectId first_fork_;
};

// ---------------------------------------------------------------------------
// Fork: stripes requests across disks.
// ---------------------------------------------------------------------------
struct ForkState : CloneableState<ForkState> {
  std::int64_t routed{0};
};

class Fork final : public SimulationObject {
 public:
  Fork(ObjectId id, const RaidParams& p, ObjectId first_disk)
      : SimulationObject(id, "raid.fork" + std::to_string(id),
                         std::make_unique<ForkState>()),
        p_(p),
        first_disk_(first_disk) {}

  void initialize(ObjectContext&) override {}

  void execute(ObjectContext& ctx, const EventMsg& ev) override {
    NW_CHECK(ev.data.at(0) == kRequest);
    auto& st = state_as<ForkState>();
    st.mut(st.routed) += 1;
    const std::int64_t block = ev.data.at(3);
    const ObjectId disk = first_disk_ + static_cast<ObjectId>(block % p_.disks);
    ctx.send(disk, ctx.now() + ctx.rng().uniform(p_.fork_delay_min, p_.fork_delay_max),
             {kForwarded, ev.data.at(1), ev.data.at(2), block});
    ctx.fold_signature(
        static_cast<std::int64_t>(ev.id * 31 + static_cast<std::uint64_t>(block)));
  }

 private:
  RaidParams p_;
  ObjectId first_disk_;
};

// ---------------------------------------------------------------------------
// Disk: a virtual-time FIFO server.
// ---------------------------------------------------------------------------
struct DiskState : CloneableState<DiskState> {
  std::int64_t served{0};
  VirtualTime free_at{VirtualTime::zero()};
};

class Disk final : public SimulationObject {
 public:
  Disk(ObjectId id, const RaidParams& p)
      : SimulationObject(id, "raid.disk" + std::to_string(id),
                         std::make_unique<DiskState>()),
        p_(p) {}

  void initialize(ObjectContext&) override {}

  void execute(ObjectContext& ctx, const EventMsg& ev) override {
    NW_CHECK(ev.data.at(0) == kForwarded);
    auto& st = state_as<DiskState>();
    st.mut(st.served) += 1;
    const std::int64_t service = ctx.rng().uniform(p_.service_min, p_.service_max);
    const VirtualTime start = VirtualTime::max(ctx.now(), st.free_at);
    const VirtualTime done = start + service;
    st.mut(st.free_at) = done;
    const auto source = static_cast<ObjectId>(ev.data.at(1));
    // Completion must be strictly after now even under zero queueing.
    const VirtualTime reply_at = VirtualTime::max(done, ctx.now() + 1);
    ctx.send(source, reply_at, {kReply, ev.data.at(1), ev.data.at(2), reply_at.t});
    ctx.fold_signature(ev.data.at(2) * 2654435761LL + done.t);
  }

 private:
  RaidParams p_;
};

}  // namespace

BuiltModel build_raid(const RaidParams& p, std::uint32_t num_nodes) {
  NW_CHECK(num_nodes >= 1);
  NW_CHECK(p.sources >= 1 && p.forks >= 1 && p.disks >= 1);
  BuiltModel m;
  m.partition = std::make_shared<warped::Partition>();
  m.per_node.resize(num_nodes);

  const auto first_fork = static_cast<ObjectId>(p.sources);
  const auto first_disk = static_cast<ObjectId>(p.sources + p.forks);
  const std::int64_t total_objs = p.sources + p.forks + p.disks;

  auto node_of = [num_nodes](ObjectId id) { return static_cast<NodeId>(id % num_nodes); };

  const std::int64_t per_source = p.total_requests / p.sources;
  const std::int64_t leftover = p.total_requests % p.sources;

  for (std::int64_t i = 0; i < total_objs; ++i) {
    const auto id = static_cast<ObjectId>(i);
    const NodeId node = node_of(id);
    m.partition->place(id, node);
    std::unique_ptr<warped::SimulationObject> obj;
    if (id < first_fork) {
      const std::int64_t quota = per_source + (id < leftover ? 1 : 0);
      obj = std::make_unique<Source>(id, p, quota, first_fork);
    } else if (id < first_disk) {
      obj = std::make_unique<Fork>(id, p, first_disk);
    } else {
      obj = std::make_unique<Disk>(id, p);
    }
    m.per_node[node].push_back(std::move(obj));
  }
  return m;
}

}  // namespace nicwarp::models
