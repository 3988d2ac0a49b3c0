// Workload characterization study: the Spider I server-log analysis that
// shaped Spider II's design (Section II, study [14]).
//
// Generates a production-day request stream from the published parameters,
// runs the characterization pipeline on it — write/read mix, bimodal
// request sizes, Pareto tail indices via the Hill estimator. These are
// exactly the statistics the paper says fed the metadata-server
// optimization and the 240 GB/s random-I/O requirement.
//
// Usage: workload_study [trace.csv]
// With a path, the whole trace (~190 MB) is also exported there as CSV for
// external tooling; without one, nothing is written.
#include <fstream>
#include <iostream>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "workload/arrivals.hpp"
#include "workload/characterize.hpp"
#include "workload/mixed.hpp"
#include "workload/trace_io.hpp"

int main(int argc, char** argv) {
  using namespace spider;
  using namespace spider::workload;

  Rng rng(1404);  // the study year, backwards

  // The published mix: 60/40 write/read; sizes either < 16 KB or k x 1 MB;
  // long-tailed inter-arrival and idle periods.
  const WorkloadMixParams mix;
  std::cout << "generating 10 simulated minutes of center traffic from 128 "
               "client streams...\n";
  const auto trace = generate_trace(mix, 128, 600.0, rng);
  std::cout << trace.size() << " requests ("
            << offered_bandwidth(trace) / 1e9 << " GB/s offered)\n\n";

  const auto stats = characterize(trace);
  std::cout << "characterization (paper values in parentheses):\n"
            << "  write fraction:        " << stats.write_fraction
            << "  (0.60)\n"
            << "  requests < 16 KB:      " << stats.small_fraction
            << "  (small mode)\n"
            << "  requests = k x 1 MB:   " << stats.mb_multiple_fraction
            << "  (large mode)\n"
            << "  inter-arrival alpha:   " << stats.interarrival_tail_alpha
            << "  (Pareto, long tail)\n"
            << "  idle-period alpha:     " << stats.idle_tail_alpha
            << "  (Pareto, long tail)\n\n";

  std::cout << "request-size histogram (log2 bins):\n"
            << stats.size_histogram.to_string() << "\n";

  // The server-side bandwidth timeline (what the DDN tool database holds).
  const auto timeline = bandwidth_timeline(trace, 10.0, 600.0);
  double peak = 0.0, sum = 0.0;
  for (double b : timeline) {
    peak = std::max(peak, b);
    sum += b;
  }
  std::cout << "bandwidth timeline: mean "
            << sum / static_cast<double>(timeline.size()) / 1e9
            << " GB/s, peak " << peak / 1e9
            << " GB/s (bursty, as the study found)\n";

  if (argc > 1) {
    const char* path = argv[1];
    std::ofstream out(path);
    write_trace_csv(out, trace);
    if (!out) {
      std::cerr << "cannot write " << path << "\n";
      return 1;
    }
    std::cout << "\ntrace exported to " << path << " ("
              << trace.size() << " rows)\n";
  }
  return 0;
}
