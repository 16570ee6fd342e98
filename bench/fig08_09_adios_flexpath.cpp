// Reproduces Fig 8 (ADIOS writer costs: init / advance / analysis) and
// Fig 9 (endpoint timings for the Histogram, Autocorrelation, and
// Catalyst-slice workloads) for the FlexPath in transit configuration,
// plus the §4.1.4 headline comparison: "only an average of a 50% runtime
// penalty associated with the Catalyst-Slice operation compared to doing
// it inlined in the simulation code."

#include <atomic>
#include <cstdio>

#include "backends/flexpath.hpp"
#include "bench_common.hpp"

namespace {

using namespace insitu;
using namespace insitu::bench;

enum class EndpointWorkload { kHistogram, kAutocorrelation, kCatalystSlice };

const char* to_string(EndpointWorkload w) {
  switch (w) {
    case EndpointWorkload::kHistogram: return "Histogram";
    case EndpointWorkload::kAutocorrelation: return "Autocorrelation";
    case EndpointWorkload::kCatalystSlice: return "Catalyst-slice";
  }
  return "?";
}

struct FlexPathResult {
  backends::FlexPathWriterTimings writer;
  backends::FlexPathEndpointTimings endpoint;
  double endpoint_analysis_mean = 0.0;
};

FlexPathResult run_flexpath(EndpointWorkload workload, int pairs, int steps) {
  FlexPathResult result;
  std::atomic<bool> done{false};
  ObsSession* obs = ObsSession::current();
  comm::Runtime::Options options = session_options();
  options.machine = comm::cori_haswell();

  comm::RunReport report = comm::Runtime::run(2 * pairs, options, [&](comm::Communicator& world) {
    const bool is_writer = world.rank() < pairs;
    comm::Communicator group = world.split(is_writer ? 0 : 1, world.rank());
    backends::FlexPathOptions fp;
    fp.reader_init_seconds = 1.2;  // Cori's slow reader bootstrap (§4.1.4)
    if (is_writer) {
      miniapp::OscillatorConfig cfg;
      cfg.global_cells = {24, 24, 24};
      cfg.dt = 0.05;
      cfg.oscillators = {{miniapp::Oscillator::Kind::kPeriodic,
                          {12, 12, 12}, 5.0, 2.0 * M_PI, 0.0}};
      miniapp::OscillatorSim sim(group, cfg);
      sim.initialize();
      miniapp::OscillatorDataAdaptor adaptor(sim);
      auto writer = std::make_shared<backends::FlexPathWriter>(
          world, world.rank() + pairs, fp);
      core::InSituBridge bridge(&group);
      bridge.add_analysis(writer);
      (void)bridge.initialize();
      for (int s = 0; s < steps; ++s) {
        (void)bridge.execute(adaptor, sim.time(), s);
        sim.step();
      }
      (void)bridge.finalize();
      if (group.rank() == 0) result.writer = writer->timings();
    } else {
      core::InSituBridge bridge(&group);
      switch (workload) {
        case EndpointWorkload::kHistogram:
          bridge.add_analysis(std::make_shared<analysis::HistogramAnalysis>(
              "data", data::Association::kPoint, 64));
          break;
        case EndpointWorkload::kAutocorrelation:
          bridge.add_analysis(std::make_shared<analysis::Autocorrelation>(
              "data", data::Association::kPoint, 10, 3));
          break;
        case EndpointWorkload::kCatalystSlice: {
          backends::CatalystSliceConfig cs;
          cs.image_width = 256;
          cs.image_height = 144;
          cs.scalar_min = -1.5;
          cs.scalar_max = 1.5;
          bridge.add_analysis(std::make_shared<backends::CatalystSlice>(cs));
          break;
        }
      }
      (void)bridge.initialize();
      backends::FlexPathEndpoint endpoint(world, world.rank() - pairs, fp);
      (void)endpoint.run(group, bridge);
      (void)bridge.finalize();
      if (group.rank() == 0) {
        result.endpoint = endpoint.timings();
        result.endpoint_analysis_mean = endpoint.timings().analysis.mean();
        done = true;
      }
    }
  });
  (void)done;
  if (obs != nullptr) {
    obs->record(std::string("flexpath-") + to_string(workload) + "/p" +
                    std::to_string(2 * pairs),
                report);
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  ObsSession obs(argc, argv);
  std::printf("=== bench: Fig 8 & Fig 9 — ADIOS FlexPath in transit ===\n");
  const int pairs = 4;
  const int steps = 8;

  pal::TablePrinter fig8("Fig 8 (executed): writer-side costs");
  fig8.set_header({"endpoint workload", "writer init (s)",
                   "advance/step (s)", "analysis/step (s)"});
  pal::TablePrinter fig9("Fig 9 (executed): endpoint-side costs");
  fig9.set_header({"endpoint workload", "reader init (s)",
                   "receive/step (s)", "analysis/step (s)"});

  double flexpath_slice_step = 0.0;
  for (const auto workload :
       {EndpointWorkload::kHistogram, EndpointWorkload::kAutocorrelation,
        EndpointWorkload::kCatalystSlice}) {
    const FlexPathResult r = run_flexpath(workload, pairs, steps);
    fig8.add_row({to_string(workload),
                  pal::TablePrinter::num(r.writer.initialize, 5),
                  pal::TablePrinter::num(r.writer.advance.mean(), 6),
                  pal::TablePrinter::num(r.writer.analysis.mean(), 6)});
    fig9.add_row({to_string(workload),
                  pal::TablePrinter::num(r.endpoint.initialize, 4),
                  pal::TablePrinter::num(r.endpoint.receive.mean(), 5),
                  pal::TablePrinter::num(r.endpoint.analysis.mean(), 5)});
    if (workload == EndpointWorkload::kCatalystSlice) {
      flexpath_slice_step =
          r.endpoint.receive.mean() + r.endpoint.analysis.mean();
    }
  }
  fig8.add_note("advance = metadata sync; analysis = transmit + credit wait");
  fig8.print();
  fig9.add_note("reader init dominated by connection bootstrap (Cori tuning)");
  fig9.print();

  // §4.1.4 headline: FlexPath Catalyst-slice vs inlined Catalyst-slice.
  MiniappBenchParams inline_params;
  inline_params.ranks = pairs;
  inline_params.cells_per_axis = 24;
  inline_params.steps = steps;
  const RunResult inlined =
      run_miniapp_config(MiniappConfig::kCatalystSlice, inline_params);
  pal::TablePrinter headline("§4.1.4: FlexPath vs inlined Catalyst-slice");
  headline.set_header({"path", "slice step cost (s)", "penalty"});
  headline.add_row({"inlined (in situ)",
                    pal::TablePrinter::num(inlined.per_step_analysis, 5),
                    "-"});
  const double penalty =
      inlined.per_step_analysis > 0.0
          ? (flexpath_slice_step / inlined.per_step_analysis - 1.0) * 100.0
          : 0.0;
  headline.add_row({"FlexPath (in transit)",
                    pal::TablePrinter::num(flexpath_slice_step, 5),
                    pal::TablePrinter::num(penalty, 0) + " %"});
  headline.add_note("paper: ~50% average penalty (buffering + co-scheduling)");
  headline.print();
  return obs.finish();
}
