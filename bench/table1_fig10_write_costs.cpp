// Reproduces Table 1 (one-timestep write cost: multi-file "VTK I/O" vs
// collective "MPI-IO" at 812/6496/45440 cores writing 2/16/123 GB) and
// Fig 10 (Baseline vs Baseline+I/O per-step breakdown over 100 steps).
//
// Paper findings: file-per-rank I/O beats vanilla collective MPI-IO at all
// three scales; at 45K the write takes ~20x the simulation step.

#include <cstdio>
#include <filesystem>

#include "bench_common.hpp"
#include "io/writers.hpp"

namespace {

using namespace insitu;
using namespace insitu::bench;

void table1() {
  const comm::MachineModel cori = comm::cori_haswell();
  const io::LustreModel fs(cori.fs);
  pal::TablePrinter table(
      "Table 1 (paper-scale model): one-timestep write costs on Cori");
  table.set_header({"writes", "size", "VTK I/O (model)", "paper",
                    "MPI-IO (model)", "paper"});
  struct Row {
    perfmodel::MiniappScale scale;
    const char* size;
    const char* paper_vtk;
    const char* paper_mpiio;
  };
  const Row rows[] = {
      {perfmodel::cori_1k(), "2 GB", "0.12 s", "0.40 s"},
      {perfmodel::cori_6k(), "16 GB", "0.67 s", "3.17 s"},
      {perfmodel::cori_45k(), "123 GB", "9.05 s", "22.87 s"},
  };
  for (const Row& row : rows) {
    table.add_row(
        {std::to_string(row.scale.ranks), row.size,
         pal::TablePrinter::num(
             perfmodel::posthoc_write_seconds(fs, row.scale), 2) + " s",
         row.paper_vtk,
         pal::TablePrinter::num(
             perfmodel::posthoc_collective_write_seconds(
                 fs, row.scale, cori.fs.default_stripe_count),
             2) + " s",
         row.paper_mpiio});
  }
  table.add_note("MPI-IO = vanilla collective subarray write, NERSC striping");
  table.print();
}

void fig10_executed() {
  const std::string dir = "/tmp/insitu_bench_fig10";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  pal::TablePrinter table(
      "Fig 10 (executed): Baseline vs Baseline+I/O per-step breakdown");
  table.set_header({"ranks", "config", "init (s)", "sim/step (s)",
                    "write/step (s)", "finalize (s)"});
  for (const int p : executed_ranks()) {
    // Baseline without I/O.
    MiniappBenchParams params;
    params.ranks = p;
    const RunResult base = run_miniapp_config(MiniappConfig::kBaseline, params);
    table.add_row({std::to_string(p), "Baseline",
                   pal::TablePrinter::num(base.sim_init, 5),
                   pal::TablePrinter::num(base.per_step_sim, 6), "0",
                   pal::TablePrinter::num(base.finalize, 6)});

    // Baseline + per-step file-per-rank writes (real files).
    double write_per_step = 0.0, sim_per_step = 0.0, init = 0.0;
    comm::Runtime::Options options = session_options();
    options.machine = comm::cori_haswell();
    options.observe.trace = false;  // not recorded
    comm::Runtime::run(p, options, [&](comm::Communicator& comm) {
      const double t0 = comm.clock().now();
      miniapp::OscillatorConfig cfg;
      cfg.global_cells = {16, 16, 16};
      cfg.oscillators = {{miniapp::Oscillator::Kind::kPeriodic,
                          {8, 8, 8}, 3.0, 2.0 * M_PI, 0.0}};
      miniapp::OscillatorSim sim(comm, cfg);
      sim.initialize();
      const double t_init = comm.clock().now() - t0;
      miniapp::OscillatorDataAdaptor adaptor(sim);
      adaptor.set_communicator(&comm);
      io::VtkMultiFileWriter writer(dir, io::LustreModel(comm.machine().fs));
      pal::PhaseTimer sim_t, write_t;
      for (int s = 0; s < 10; ++s) {
        const double ts = comm.clock().now();
        sim.step();
        sim_t.add(comm.clock().now() - ts);
        auto mesh = adaptor.full_mesh();
        const double tw = comm.clock().now();
        (void)writer.write_step(comm, **mesh, s);
        write_t.add(comm.clock().now() - tw);
        (void)adaptor.release_data();
      }
      if (comm.rank() == 0) {
        init = t_init;
        sim_per_step = sim_t.mean();
        write_per_step = write_t.mean();
      }
    });
    table.add_row({std::to_string(p), "Baseline+I/O",
                   pal::TablePrinter::num(init, 5),
                   pal::TablePrinter::num(sim_per_step, 6),
                   pal::TablePrinter::num(write_per_step, 6), "~0"});
  }
  table.print();
  std::filesystem::remove_all(dir);
}

void fig10_paper_scale() {
  const comm::MachineModel cori = comm::cori_haswell();
  const io::LustreModel fs(cori.fs);
  pal::TablePrinter table(
      "Fig 10 (paper-scale model): write cost vs simulation step");
  table.set_header({"cores", "sim/step (s)", "write/step (s)", "write/sim"});
  for (const auto& scale : paper_scales()) {
    const double sim = perfmodel::sim_step_seconds(cori, scale);
    const double write = perfmodel::posthoc_write_seconds(fs, scale);
    table.add_row({std::to_string(scale.ranks),
                   pal::TablePrinter::num(sim, 3),
                   pal::TablePrinter::num(write, 3),
                   pal::TablePrinter::num(write / sim, 1) + "x"});
  }
  table.add_note("paper: writes ~4x sim at 6K and ~20x at 45K");
  table.print();
}

}  // namespace

int main(int argc, char** argv) {
  ObsSession obs(argc, argv);
  std::printf("=== bench: Table 1 & Fig 10 — the cost of writes ===\n");
  table1();
  fig10_executed();
  fig10_paper_scale();
  return obs.finish();
}
