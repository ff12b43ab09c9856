// The paper's §4 figures and the ablations as views over the scenario
// registry (bench/scenarios.cpp).
//
// A view reads one registry group's full sweep, in registry order, and
// prints one figure's table, its CSV block, and the tail-latency table of
// the group's points. Views that share a group (fig5a/fig5b, fig6a/fig6b,
// fig7a/fig7b/fig8) share its runs. tools/plot_figures.py renders the SVG
// figures from this output.
#pragma once

#include <string>

namespace nicwarp::bench {

// Prints the views named in `names` ("fig4,abl_pgvt" or "all") to stdout.
// Every registry point those views read runs once, in parallel, with
// latency recording on. A point that throws or hits the simulated-time cap
// becomes an error row. Returns the process exit code: 0 once every table
// is printed, 2 on an unknown view name (the valid ones go to stderr).
int print_tables(const std::string& names);

}  // namespace nicwarp::bench
