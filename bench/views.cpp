#include "views.hpp"

#include <algorithm>
#include <cstdio>
#include <initializer_list>
#include <span>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/table.hpp"
#include "scenarios.hpp"

namespace nicwarp::bench {

namespace {

using harness::ExperimentConfig;
using harness::ExperimentResult;
using harness::Table;
using Points = std::span<const Scenario>;
using Results = std::span<const ExperimentResult>;

// Why a point backs no metrics (the exception its run threw, or the
// simulated-time cap it hit); empty when it completed.
std::string failure(const ExperimentResult& r) {
  if (r.failed()) return r.error;
  if (!r.completed) return "hit the simulated-time cap";
  return {};
}

// When any of the points backing one table row failed, adds an error row
// (label cells + combined reasons in the trailing "error" column) and
// returns true so the caller skips its metric row: a failed run carries no
// metrics and a capped one only a prefix of the run, and folding either
// into a figure would silently corrupt the reproduction.
bool add_error_rows(Table& t, std::vector<std::string> label_cells,
                    std::initializer_list<const ExperimentResult*> rs) {
  std::string err;
  for (const ExperimentResult* r : rs) {
    const std::string why = failure(*r);
    if (why.empty()) continue;
    if (!err.empty()) err += "; ";
    err += why;
  }
  if (err.empty()) return false;
  t.add_error_row(std::move(label_cells), err);
  return true;
}

const char* signatures(const ExperimentResult& a, const ExperimentResult& b) {
  return a.signature == b.signature ? "match" : "MISMATCH";
}

const char* model_name(const ExperimentConfig& cfg) {
  return cfg.model == harness::ModelKind::kRaid ? "RAID" : "POLICE";
}

// Figure 4: "RAID GVT Execution Time" versus the GVT period, host-resident
// Mattern (WARPED) versus NIC-resident GVT. Expected shape: WARPED degrades
// steeply as the period approaches 1 (control-message storm); NIC GVT is
// nearly flat, wins decisively at aggressive periods, and is slightly slower
// at very infrequent GVT (the per-packet NIC checks).
Table fig4(Points pts, Results results) {
  Table t("Fig. 4 — RAID performance with NIC GVT (simulated seconds)");
  t.set_header({"GVT period (events)", "WARPED (s)", "NIC GVT (s)", "WARPED rounds",
                "NIC rounds", "signatures"});
  for (std::size_t i = 0; i < results.size() / 2; ++i) {
    const auto& host = results[2 * i];
    const auto& nic = results[2 * i + 1];
    const std::string period = Table::num(pts[2 * i].cfg.gvt_period);
    if (add_error_rows(t, {period}, {&host, &nic})) continue;
    t.add_row({period, Table::num(host.sim_seconds, 4), Table::num(nic.sim_seconds, 4),
               Table::num(host.gvt_rounds), Table::num(nic.gvt_rounds),
               signatures(host, nic)});
  }
  return t;
}

// Figure 5(a): POLICE simulated execution time versus the GVT period.
// Expected shape: at highly aggressive GVT the traditional implementation
// "breaks down because the communication traffic overwhelms the host
// processor resources"; the NIC version does not. The two converge as GVT
// becomes infrequent.
Table fig5a(Points pts, Results results) {
  Table t("Fig. 5a — POLICE performance with NIC GVT (simulated seconds)");
  t.set_header({"GVT period (events)", "WARPED (s)", "NIC GVT (s)", "signatures"});
  for (std::size_t i = 0; i < results.size() / 2; ++i) {
    const auto& host = results[2 * i];
    const auto& nic = results[2 * i + 1];
    const std::string period = Table::num(pts[2 * i].cfg.gvt_period);
    if (add_error_rows(t, {period}, {&host, &nic})) continue;
    t.add_row({period, Table::num(host.sim_seconds, 4), Table::num(nic.sim_seconds, 4),
               signatures(host, nic)});
  }
  return t;
}

// Figure 5(b): POLICE GVT ring circulations over the whole run versus the
// GVT period. Expected shape: WARPED's count explodes toward small periods
// (the paper reports ~450,000 at period 1) because the host initiates an
// estimation per period regardless of outstanding tokens; the NIC's stays
// "relatively constant" because GvtTokenPending serializes estimations and
// the NIC opportunistically forwards GVT information.
Table fig5b(Points pts, Results results) {
  Table t("Fig. 5b — POLICE number of GVT rounds");
  t.set_header({"GVT period (events)", "WARPED rounds", "NIC GVT rounds",
                "WARPED estimations", "NIC estimations"});
  for (std::size_t i = 0; i < results.size() / 2; ++i) {
    const auto& host = results[2 * i];
    const auto& nic = results[2 * i + 1];
    const std::string period = Table::num(pts[2 * i].cfg.gvt_period);
    if (add_error_rows(t, {period}, {&host, &nic})) continue;
    t.add_row({period, Table::num(host.gvt_rounds), Table::num(nic.gvt_rounds),
               Table::num(host.gvt_estimations), Table::num(nic.gvt_estimations)});
  }
  return t;
}

// Figure 6(a): RAID runtime improvement from early message cancellation
// versus the number of disk requests. Expected shape: a modest improvement
// (<5%); RAID's request/reply chains drain the send ring quickly, so few
// messages can be cancelled in place.
Table fig6a(Points pts, Results results) {
  Table t("Fig. 6a — RAID performance with NIC direct cancellation");
  t.set_header({"disk requests", "baseline (s)", "cancel (s)", "improvement",
                "signatures"});
  for (std::size_t i = 0; i < results.size() / 2; ++i) {
    const auto& off = results[2 * i];
    const auto& on = results[2 * i + 1];
    const std::string requests = Table::num(pts[2 * i].cfg.raid.total_requests);
    if (add_error_rows(t, {requests}, {&off, &on})) continue;
    const double impr = 100.0 * (off.sim_seconds - on.sim_seconds) / off.sim_seconds;
    t.add_row({requests, Table::num(off.sim_seconds, 4), Table::num(on.sim_seconds, 4),
               Table::pct(impr, 2), signatures(off, on)});
  }
  return t;
}

// Figure 6(b): RAID total messages sent versus the number of disk requests.
// Expected shape: both grow linearly with requests; the cancellation line
// sits visibly below the baseline (dropped-in-place messages plus the
// secondary rollbacks they no longer cause).
Table fig6b(Points pts, Results results) {
  Table t("Fig. 6b — RAID messages sent with NIC direct cancellation");
  t.set_header({"disk requests", "WARPED msgs sent", "cancel msgs sent", "NIC drops",
                "reduction"});
  for (std::size_t i = 0; i < results.size() / 2; ++i) {
    const auto& off = results[2 * i];
    const auto& on = results[2 * i + 1];
    const std::string requests = Table::num(pts[2 * i].cfg.raid.total_requests);
    if (add_error_rows(t, {requests}, {&off, &on})) continue;
    const double red = 100.0 * static_cast<double>(off.wire_packets - on.wire_packets) /
                       static_cast<double>(off.wire_packets);
    t.add_row({requests, Table::num(off.wire_packets), Table::num(on.wire_packets),
               Table::num(on.dropped_by_nic), Table::pct(red, 2)});
  }
  return t;
}

// Figure 7(a): POLICE runtime improvement from early cancellation versus
// the number of stations. Expected shape: a substantially larger
// improvement than RAID's (up to ~27% in the paper); POLICE's bursty
// fan-out keeps the send ring deep, so a large share of to-be-cancelled
// messages dies in place, along with the secondary rollbacks they cause.
Table fig7a(Points pts, Results results) {
  Table t("Fig. 7a — POLICE performance with NIC direct cancellation");
  t.set_header({"police stations", "baseline (s)", "cancel (s)", "improvement",
                "signatures"});
  for (std::size_t i = 0; i < results.size() / 2; ++i) {
    const auto& off = results[2 * i];
    const auto& on = results[2 * i + 1];
    const std::string stations = Table::num(pts[2 * i].cfg.police.stations);
    if (add_error_rows(t, {stations}, {&off, &on})) continue;
    const double impr = 100.0 * (off.sim_seconds - on.sim_seconds) / off.sim_seconds;
    t.add_row({stations, Table::num(off.sim_seconds, 4), Table::num(on.sim_seconds, 4),
               Table::pct(impr, 2), signatures(off, on)});
  }
  return t;
}

// Figure 7(b): the percentage of cancelled POLICE messages dropped by the
// NIC. A cancelled message is one for which the host generated an
// anti-message; it was dropped by the NIC when the positive died in the
// send ring or at the host-tx hook instead of crossing the wire. The paper
// reports 52–62%. Reads only the cancel points of the fig7 sweep.
Table fig7b(Points pts, Results results) {
  Table t("Fig. 7b — percentage of cancelled messages dropped by the NIC");
  t.set_header({"police stations", "cancelled (antis)", "dropped by NIC",
                "antis filtered", "% dropped"});
  for (std::size_t i = 0; i < results.size() / 2; ++i) {
    const auto& r = results[2 * i + 1];
    const std::string stations = Table::num(pts[2 * i + 1].cfg.police.stations);
    if (add_error_rows(t, {stations}, {&r})) continue;
    const double pct = r.antis_generated > 0
                           ? 100.0 * static_cast<double>(r.dropped_by_nic) /
                                 static_cast<double>(r.antis_generated)
                           : 0.0;
    t.add_row({stations, Table::num(r.antis_generated), Table::num(r.dropped_by_nic),
               Table::num(r.filtered_antis), Table::pct(pct, 1)});
  }
  return t;
}

// Figure 8: POLICE overall messages generated, including those later
// cancelled: event messages plus anti-messages. Expected shape:
// cancellation reduces the total "ostensibly because of the reduction in
// the rollbacks due to the elimination of some of the anti-messages before
// they cause erroneous computation at their destination".
Table fig8(Points pts, Results results) {
  Table t("Fig. 8 — POLICE overall messages generated (incl. later-cancelled)");
  t.set_header({"police stations", "WARPED msgs", "cancel msgs", "WARPED rollbacks",
                "cancel rollbacks", "reduction"});
  for (std::size_t i = 0; i < results.size() / 2; ++i) {
    const auto& off = results[2 * i];
    const auto& on = results[2 * i + 1];
    const std::string stations = Table::num(pts[2 * i].cfg.police.stations);
    if (add_error_rows(t, {stations}, {&off, &on})) continue;
    const std::int64_t moff = off.event_msgs_generated + off.antis_generated;
    const std::int64_t mon = on.event_msgs_generated + on.antis_generated;
    const double red = 100.0 * static_cast<double>(moff - mon) / static_cast<double>(moff);
    t.add_row({stations, Table::num(moff), Table::num(mon), Table::num(off.rollbacks),
               Table::num(on.rollbacks), Table::pct(red, 1)});
  }
  return t;
}

// fig_tail: how much a lossy fabric inflates p99.9 message-delivery and
// event-commit latency under each GVT manager and cancellation mode; what
// the go-back-N replays, NAKs and token regeneration cost at the tail.
// Expected shape: p50 barely moves with loss while p99.9 grows
// multiplicatively.
Table fig_tail(Points pts, Results results) {
  Table t("fig_tail — p99.9 amplification vs fault rate (modeled us)");
  t.set_header({"variant", "loss", "msg p50", "msg p99.9", "msg amp", "commit p99.9",
                "commit amp", "retransmits"});
  const ExperimentResult* base = nullptr;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    const Scenario& sc = pts[i];
    // Each variant's series starts at its loss=0 point, the amplification base.
    if (sc.cfg.fault.drop_rate == 0.0) base = &r;
    const std::size_t from = sc.name.find('/') + 1;
    const std::string variant = sc.name.substr(from, sc.name.find('/', from) - from);
    const std::string loss = Table::num(sc.cfg.fault.drop_rate * 100.0, 1) + "%";
    if (add_error_rows(t, {variant, loss}, {&r})) continue;
    auto amp = [](double v, double b) { return b > 0.0 ? v / b : 0.0; };
    t.add_row({variant, loss, Table::num(r.latency.delivery_us.p50, 2),
               Table::num(r.latency.delivery_us.p999, 2),
               Table::num(amp(r.latency.delivery_us.p999, base->latency.delivery_us.p999), 3),
               Table::num(r.latency.commit_us.p999, 2),
               Table::num(amp(r.latency.commit_us.p999, base->latency.commit_us.p999), 3),
               Table::num(r.retransmits)});
  }
  return t;
}

// Ablation A1: what opportunistic piggybacking buys NIC-level GVT. Turning
// it off makes every token a dedicated wire message and every handshake
// reply a dedicated mailbox write.
Table abl_piggyback(Points pts, Results results) {
  Table t("Ablation A1 — NIC GVT with and without piggybacking (period 10)");
  t.set_header({"model", "piggyback (s)", "dedicated (s)", "penalty", "signatures"});
  for (std::size_t i = 0; i < results.size() / 2; ++i) {
    const auto& with = results[2 * i];
    const auto& without = results[2 * i + 1];
    const char* model = model_name(pts[2 * i].cfg);
    if (add_error_rows(t, {model}, {&with, &without})) continue;
    const double penalty = 100.0 * (without.sim_seconds - with.sim_seconds) / with.sim_seconds;
    t.add_row({model, Table::num(with.sim_seconds, 4), Table::num(without.sim_seconds, 4),
               Table::pct(penalty, 2), signatures(with, without)});
  }
  return t;
}

// Ablation A2: §3.2's flow-control repair under NIC packet dropping.
// Dropped packets consumed credits the receiver can never return; the
// testbed refunds them at the sender from the drop notices. With the repair
// off, the window leaks shut and the sender survives only through a
// bounded timeout/resync fallback, so the repair is a liveness feature: at
// 900 stations both variants commit identical signatures, at 2000 the
// broken one exhausts its resyncs and runs into the simulated-time cap.
Table abl_credit(Points pts, Results results) {
  Table t("Ablation A2 — early cancellation with/without credit repair");
  t.set_header({"police stations", "repaired (s)", "broken (s)", "delta",
                "NIC drops (repaired)", "signatures"});
  for (std::size_t i = 0; i < results.size() / 2; ++i) {
    const auto& with = results[2 * i];
    const auto& without = results[2 * i + 1];
    const std::string stations = Table::num(pts[2 * i].cfg.police.stations);
    if (add_error_rows(t, {stations}, {&with, &without})) continue;
    const double penalty = 100.0 * (without.sim_seconds - with.sim_seconds) / with.sim_seconds;
    t.add_row({stations, Table::num(with.sim_seconds, 4),
               Table::num(without.sim_seconds, 4), Table::pct(penalty, 2),
               Table::num(with.dropped_by_nic), signatures(with, without)});
  }
  return t;
}

// Ablation A3: the paper's closing conjecture that "we expect to be able to
// drop significantly more messages with a better NIC processor". Sweeps the
// NIC's per-packet firmware cost (a proxy for NIC CPU speed) and shows both
// optimizations' combined benefit over a host-Mattern baseline and the
// cancellation drop share, i.e. how the win depends on where the NIC sits
// relative to the congestion knee.
Table abl_nic_speed(Points pts, Results results) {
  Table t("Ablation A3 — NIC processor speed sweep (POLICE, both optimizations)");
  t.set_header({"NIC us/pkt", "baseline (s)", "optimized (s)", "improvement",
                "NIC drops", "drop share", "signatures"});
  for (std::size_t i = 0; i < results.size() / 2; ++i) {
    const auto& base = results[2 * i];
    const auto& opt = results[2 * i + 1];
    const std::string nic_us = Table::num(pts[2 * i].cfg.cost.nic_per_packet_us, 2);
    if (add_error_rows(t, {nic_us}, {&base, &opt})) continue;
    const double impr = 100.0 * (base.sim_seconds - opt.sim_seconds) / base.sim_seconds;
    const double share = opt.antis_generated > 0
                             ? 100.0 * static_cast<double>(opt.dropped_by_nic) /
                                   static_cast<double>(opt.antis_generated)
                             : 0.0;
    t.add_row({nic_us, Table::num(base.sim_seconds, 4), Table::num(opt.sim_seconds, 4),
               Table::pct(impr, 1), Table::num(opt.dropped_by_nic), Table::pct(share, 1),
               signatures(base, opt)});
  }
  return t;
}

// Ablation A4: WARPED's two host GVT algorithms against the NIC version.
// The paper chose Mattern's algorithm "because it has a lower overhead";
// pGVT's cost is an acknowledgement per remote event message.
Table abl_pgvt(Points pts, Results results) {
  Table t("Ablation A4 — Mattern vs pGVT vs NIC GVT (RAID)");
  t.set_header({"GVT period", "Mattern (s)", "pGVT (s)", "NIC GVT (s)",
                "pGVT wire pkts", "Mattern wire pkts"});
  for (std::size_t i = 0; i < results.size() / 3; ++i) {
    const auto& mat = results[3 * i];
    const auto& pg = results[3 * i + 1];
    const auto& nic = results[3 * i + 2];
    const std::string period = Table::num(pts[3 * i].cfg.gvt_period);
    if (add_error_rows(t, {period}, {&mat, &pg, &nic})) continue;
    t.add_row({period, Table::num(mat.sim_seconds, 4), Table::num(pg.sim_seconds, 4),
               Table::num(nic.sim_seconds, 4), Table::num(pg.wire_packets),
               Table::num(mat.wire_packets)});
  }
  return t;
}

// Ablation A5: the classic Time-Warp state-saving trade-off. Copy saving
// every event makes rollback cheap but taxes every forward step; saving
// every N events amortizes the copy but forces a coast-forward replay on
// rollback. Two rows go beyond the fixed sweep: the adaptive checkpoint
// interval and the incremental undo-log. The saved-bytes columns report
// what each discipline paid: snapshot bytes for copy saving, logged undo
// bytes (plus its rare fallback snapshots) for incremental.
Table abl_state(Points pts, Results results) {
  const std::size_t rows = results.size() / 2;  // RAID's points, then POLICE's
  auto row_label = [&](std::size_t i) -> std::string {
    const ExperimentConfig& cfg = pts[i].cfg;
    if (cfg.state_mode == warped::StateSaveMode::kIncremental) return "incr";
    if (cfg.state_save_period == 0) return "adaptive";
    return std::to_string(cfg.state_save_period);
  };
  auto saved_mb = [](const ExperimentResult& r) {
    return static_cast<double>(r.state_save_bytes + r.undo_bytes_logged) /
           (1024.0 * 1024.0);
  };

  Table t("Ablation A5 — state-saving period sweep (simulated seconds)");
  t.set_header({"save period", "RAID (s)", "RAID replays", "RAID saved MB",
                "POLICE (s)", "POLICE replays", "POLICE saved MB",
                "signatures stable"});
  for (std::size_t i = 0; i < rows; ++i) {
    const auto& raid = results[i];
    const auto& police = results[rows + i];
    if (add_error_rows(t, {row_label(i)}, {&raid, &police})) continue;
    const bool stable = raid.signature == results[0].signature &&
                        police.signature == results[rows].signature;
    t.add_row({row_label(i), Table::num(raid.sim_seconds, 4),
               Table::num(raid.events_replayed), Table::num(saved_mb(raid), 2),
               Table::num(police.sim_seconds, 4), Table::num(police.events_replayed),
               Table::num(saved_mb(police), 2), stable ? "yes" : "NO"});
  }
  return t;
}

// Ablation A6: aggressive versus lazy cancellation (the paper's reference
// [27]). With deterministic event identity, re-execution after a rollback
// usually regenerates identical messages, for which lazy cancellation sends
// no anti-messages at all. NIC GVT, no NIC cancellation: the two strategies
// are host-side alternatives.
Table abl_lazy(Points pts, Results results) {
  Table t("Ablation A6 — aggressive vs lazy cancellation");
  t.set_header({"model", "aggressive (s)", "lazy (s)", "antis (aggr)", "antis (lazy)",
                "lazy matches", "signatures"});
  for (std::size_t i = 0; i < results.size() / 2; ++i) {
    const auto& agg = results[2 * i];
    const auto& lazy = results[2 * i + 1];
    const char* model = model_name(pts[2 * i].cfg);
    if (add_error_rows(t, {model}, {&agg, &lazy})) continue;
    t.add_row({model, Table::num(agg.sim_seconds, 4), Table::num(lazy.sim_seconds, 4),
               Table::num(agg.antis_generated), Table::num(lazy.antis_generated),
               Table::num(lazy.lazy_matched), signatures(agg, lazy)});
  }
  return t;
}

struct View {
  const char* name;   // --table=NAME
  const char* group;  // the registry group whose points it reads
  Table (*table)(Points, Results);
};

constexpr View kViews[] = {
    {"fig4", "fig4", fig4},
    {"fig5a", "fig5", fig5a},
    {"fig5b", "fig5", fig5b},
    {"fig6a", "fig6", fig6a},
    {"fig6b", "fig6", fig6b},
    {"fig7a", "fig7", fig7a},
    {"fig7b", "fig7", fig7b},
    {"fig8", "fig7", fig8},
    {"fig_tail", "fig_tail", fig_tail},
    {"abl_piggyback", "abl_piggyback", abl_piggyback},
    {"abl_credit", "abl_credit", abl_credit},
    {"abl_nic_speed", "abl_nic_speed", abl_nic_speed},
    {"abl_pgvt", "abl_pgvt", abl_pgvt},
    {"abl_state", "abl_state", abl_state},
    {"abl_lazy", "abl_lazy", abl_lazy},
};

void print_table(const Table& t) {
  t.print();
  std::printf("\nCSV:\n%s\n", t.to_csv().c_str());
}

// One row per group point whose run did not throw, keyed by registry name.
void print_latency(Points pts, Results results) {
  Table lt("Tail latency (modeled us) — message delivery / event commit");
  lt.set_header({"point", "msg p50", "msg p99", "msg p99.9", "commit p50", "commit p99",
                 "commit p99.9"});
  bool any = false;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ExperimentResult& r = results[i];
    if (r.failed()) continue;
    lt.add_row({pts[i].name, Table::num(r.latency.delivery_us.p50, 2),
                Table::num(r.latency.delivery_us.p99, 2),
                Table::num(r.latency.delivery_us.p999, 2),
                Table::num(r.latency.commit_us.p50, 2), Table::num(r.latency.commit_us.p99, 2),
                Table::num(r.latency.commit_us.p999, 2)});
    any = true;
  }
  if (any) print_table(lt);
}

}  // namespace

int print_tables(const std::string& names) {
  std::vector<const View*> chosen;
  for (std::size_t from = 0; from <= names.size();) {
    const std::size_t to = std::min(names.find(',', from), names.size());
    const std::string name = names.substr(from, to - from);
    from = to + 1;
    if (name == "all") {
      for (const View& v : kViews) chosen.push_back(&v);
      continue;
    }
    const View* v = std::find_if(std::begin(kViews), std::end(kViews),
                                 [&](const View& cand) { return name == cand.name; });
    if (v == std::end(kViews)) {
      std::fprintf(stderr, "unknown table '%s'; valid tables: all", name.c_str());
      for (const View& cand : kViews) std::fprintf(stderr, ", %s", cand.name);
      std::fprintf(stderr, "\n");
      return 2;
    }
    chosen.push_back(v);
  }

  // Each needed point runs once, however many chosen views read its group.
  const std::vector<Scenario> all = all_scenarios();
  std::vector<std::size_t> index;
  std::vector<harness::ExperimentConfig> cfgs;
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (std::none_of(chosen.begin(), chosen.end(),
                     [&](const View* v) { return all[i].group == v->group; })) {
      continue;
    }
    index.push_back(i);
    cfgs.push_back(all[i].cfg);
    cfgs.back().latency.enabled = true;  // observational: outputs do not move
  }
  std::fprintf(stderr, "[table] running %zu experiments...\n", cfgs.size());
  std::vector<ExperimentResult> ran = harness::run_parallel(cfgs);
  std::vector<ExperimentResult> results(all.size());
  for (std::size_t k = 0; k < ran.size(); ++k) {
    const std::string why = failure(ran[k]);
    if (!why.empty()) {
      std::fprintf(stderr, "[table] WARNING: %s: %s\n", all[index[k]].name.c_str(),
                   why.c_str());
    }
    results[index[k]] = std::move(ran[k]);
  }

  for (const View* v : chosen) {
    auto in_group = [&](const Scenario& s) { return s.group == v->group; };
    const auto first = std::find_if(all.begin(), all.end(), in_group);
    const Points pts(first, std::find_if_not(first, all.end(), in_group));
    const Results rs = Results(results).subspan(
        static_cast<std::size_t>(first - all.begin()), pts.size());
    std::printf("\n");
    print_table(v->table(pts, rs));
    print_latency(pts, rs);
  }
  return 0;
}

}  // namespace nicwarp::bench
