// Reproduces Fig 11: post hoc analysis cost — read + process (+ write of
// results) — for the histogram, autocorrelation, and slice workloads,
// using 10% of the cores that produced the data (82 / 650 / 4545 readers).
//
// Paper findings: reads take 5-10x the miniapp's own runtime, with large
// variability from shared-filesystem interference.

#include <cstdio>
#include <filesystem>

#include "analysis/contour.hpp"
#include "bench_common.hpp"
#include "core/staged_adaptor.hpp"
#include "io/writers.hpp"

namespace {

using namespace insitu;
using namespace insitu::bench;

void executed_table() {
  const std::string dir = "/tmp/insitu_bench_fig11";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  // Produce 3 steps of data at 8 writer ranks.
  const int writers = 8;
  const int steps = 3;
  ObsSession* obs = ObsSession::current();
  comm::Runtime::Options options = session_options();
  options.machine = comm::cori_haswell();
  comm::RunReport produce = comm::Runtime::run(
      writers, options, [&](comm::Communicator& comm) {
    miniapp::OscillatorConfig cfg;
    cfg.global_cells = {16, 16, 16};
    cfg.oscillators = {{miniapp::Oscillator::Kind::kPeriodic,
                        {8, 8, 8}, 3.0, 2.0 * M_PI, 0.0}};
    miniapp::OscillatorSim sim(comm, cfg);
    sim.initialize();
    miniapp::OscillatorDataAdaptor adaptor(sim);
    adaptor.set_communicator(&comm);
    io::VtkMultiFileWriter writer(dir, io::LustreModel(comm.machine().fs));
    for (int s = 0; s < steps; ++s) {
      auto mesh = adaptor.full_mesh();
      (void)writer.write_step(comm, **mesh, s);
      (void)adaptor.release_data();
      sim.step();
    }
      });
  if (obs != nullptr) {
    obs->record("produce/p" + std::to_string(writers), produce);
  }

  // Post hoc phase at 1 reader (>=10% of 8, rounded).
  pal::TablePrinter table(
      "Fig 11 (executed): post hoc read+process at reduced concurrency");
  table.set_header({"workload", "readers", "read (s)", "process (s)"});
  const char* workloads[] = {"histogram", "autocorrelation", "slice"};
  for (const char* workload : workloads) {
    double read_s = 0.0, process_s = 0.0;
    comm::RunReport report = comm::Runtime::run(
        1, options, [&](comm::Communicator& comm) {
      io::PostHocReader reader(dir, io::LustreModel(comm.machine().fs));
      core::StagedDataAdaptor adaptor(nullptr);
      adaptor.set_communicator(&comm);
      // Autocorrelation needs every step; others process each step too.
      auto autocorr = std::make_shared<analysis::Autocorrelation>(
          "data", data::Association::kPoint, 2, 3);
      core::InSituBridge bridge(&comm);
      if (std::string(workload) == "autocorrelation") {
        bridge.add_analysis(autocorr);
      } else if (std::string(workload) == "histogram") {
        bridge.add_analysis(std::make_shared<analysis::HistogramAnalysis>(
            "data", data::Association::kPoint, 64));
      } else {
        backends::CatalystSliceConfig cs;
        cs.image_width = 256;
        cs.image_height = 144;
        cs.scalar_min = -1.5;
        cs.scalar_max = 1.5;
        bridge.add_analysis(std::make_shared<backends::CatalystSlice>(cs));
      }
      (void)bridge.initialize();
      pal::PhaseTimer read_t, process_t;
      for (int s = 0; s < steps; ++s) {
        const double tr = comm.clock().now();
        auto mesh = reader.read_step(comm, s, writers);
        read_t.add(comm.clock().now() - tr);
        if (!mesh.ok()) return;
        const double tp = comm.clock().now();
        adaptor.set_mesh(*mesh);
        (void)bridge.execute(adaptor, 0.0, s);
        process_t.add(comm.clock().now() - tp);
      }
      (void)bridge.finalize();
      read_s = read_t.total();
      process_s = process_t.total();
        });
    if (obs != nullptr) {
      obs->record(std::string("posthoc-") + workload + "/p1", report);
    }
    table.add_row({workload, "1", pal::TablePrinter::num(read_s, 4),
                   pal::TablePrinter::num(process_s, 4)});
  }
  table.print();
  std::filesystem::remove_all(dir);
}

void paper_scale_table() {
  const comm::MachineModel cori = comm::cori_haswell();
  const io::LustreModel fs(cori.fs);
  pal::TablePrinter table(
      "Fig 11 (paper-scale model): per-step read cost at 10% concurrency");
  table.set_header({"producer cores", "readers", "read/step (s)",
                    "sim/step (s)", "read/sim", "interference band"});
  pal::Rng rng(2016);
  for (const auto& scale : paper_scales()) {
    const double read =
        perfmodel::posthoc_read_seconds_per_step(fs, scale, 0.10);
    const double sim = perfmodel::sim_step_seconds(cori, scale);
    // Sampled 10-run interference band (the Fig 11 variability).
    double lo = 1e30, hi = 0.0;
    for (int i = 0; i < 10; ++i) {
      const double f = fs.interference(rng);
      lo = std::min(lo, read * f);
      hi = std::max(hi, read * f);
    }
    table.add_row({std::to_string(scale.ranks),
                   std::to_string(scale.ranks / 10),
                   pal::TablePrinter::num(read, 3),
                   pal::TablePrinter::num(sim, 3),
                   pal::TablePrinter::num(read / sim, 1) + "x",
                   pal::TablePrinter::num(lo, 2) + " - " +
                       pal::TablePrinter::num(hi, 2) + " s"});
  }
  table.add_note("paper: reads 5-10x the miniapp runtime, high variability");
  table.add_note(
      "paper ran autocorrelation readers on 2x nodes for buffer memory");
  table.print();
}

}  // namespace

int main(int argc, char** argv) {
  ObsSession obs(argc, argv);
  std::printf("=== bench: Fig 11 — post hoc read costs ===\n");
  executed_table();
  paper_scale_table();
  return obs.finish();
}
