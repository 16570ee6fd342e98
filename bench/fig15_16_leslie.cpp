// Reproduces Fig 15 (AVF-LESLIE strong scaling with SENSEI/Libsim on
// Titan: 1025^3 grid, 8K-131K cores; per-iteration solver time vs in situ
// init vs analyze time) and Fig 16 (the per-iteration sawtooth at 65K:
// ~7-8 s on the 1-in-5 steps that render, <0.5 s adaptor overhead on the
// other 4).

#include <cstdio>

#include "backends/libsim.hpp"
#include "bench_common.hpp"
#include "comm/runtime.hpp"
#include "core/bridge.hpp"
#include "pal/table.hpp"
#include "perfmodel/paper_model.hpp"
#include "proxy/leslie.hpp"

namespace {

using namespace insitu;

const char* kTmlSession = R"(
[session]
array = vorticity_magnitude
colormap = heat
min = 0
max = 2
width = 200
height = 200
[plot0]
type = isosurface
value = 0.4
[plot1]
type = isosurface
value = 0.8
[plot2]
type = isosurface
value = 1.2
[plot3]
type = slice
axis = 0
value = 8
[plot4]
type = slice
axis = 1
value = 8
[plot5]
type = slice
axis = 2
value = 8
)";

void executed_run() {
  pal::TablePrinter fig16(
      "Fig 16 (executed, 4 ranks): per-iteration SENSEI cost, render "
      "every 5 steps");
  fig16.set_header({"step", "sensei analyze (s)", "rendered?"});
  bench::ObsSession* obs = bench::ObsSession::current();
  comm::Runtime::Options options = bench::session_options();
  options.machine = comm::titan();
  std::vector<double> per_step(15, 0.0);
  long images = 0;
  comm::RunReport report = comm::Runtime::run(4, options, [&](comm::Communicator& comm) {
    proxy::LeslieConfig cfg;
    cfg.global_points = {17, 17, 17};
    proxy::LeslieSim sim(comm, cfg);
    sim.initialize();
    proxy::LeslieDataAdaptor adaptor(sim);
    backends::LibsimConfig lc;
    lc.session_text = kTmlSession;
    lc.every_n_steps = 5;  // the AVF-LESLIE cadence
    auto libsim = std::make_shared<backends::LibsimRender>(lc);
    core::InSituBridge bridge(&comm);
    bridge.add_analysis(libsim);
    (void)bridge.initialize();
    for (int s = 0; s < 15; ++s) {
      sim.step();
      const double t0 = comm.clock().now();
      (void)bridge.execute(adaptor, sim.time(), s);
      if (comm.rank() == 0) {
        per_step[static_cast<std::size_t>(s)] = comm.clock().now() - t0;
      }
    }
    if (comm.rank() == 0) images = libsim->images_produced();
  });
  if (obs != nullptr) obs->record("leslie-tml/p4", report);
  for (int s = 0; s < 15; ++s) {
    fig16.add_row({std::to_string(s),
                   pal::TablePrinter::num(per_step[static_cast<std::size_t>(s)], 5),
                   s % 5 == 0 ? "yes" : "no"});
  }
  fig16.add_note("images produced: " + std::to_string(images));
  fig16.add_note("paper: render steps 7-8 s, others <0.5 s at 65K");
  fig16.print();
}

void paper_scale_tables() {
  const comm::MachineModel titan = comm::titan();
  pal::TablePrinter fig15(
      "Fig 15 (paper-scale model): AVF-LESLIE 1025^3 strong scaling");
  fig15.set_header({"cores", "solver/step (s)", "sensei init (s)",
                    "render step analyze (s)", "adaptor-only step (s)"});
  for (const int ranks : {8192, 16384, 32768, 65536, 131072}) {
    perfmodel::LeslieScale scale;
    scale.ranks = ranks;
    fig15.add_row(
        {std::to_string(ranks),
         pal::TablePrinter::num(
             perfmodel::leslie_solver_step_seconds(titan, scale), 3),
         pal::TablePrinter::num(perfmodel::libsim_init_seconds(titan, ranks),
                                3),
         pal::TablePrinter::num(
             perfmodel::leslie_insitu_render_seconds(titan, scale), 3),
         pal::TablePrinter::num(
             perfmodel::leslie_adaptor_overhead_seconds(titan, scale), 4)});
  }
  fig15.add_note(
      "render cost grows with cores (per-plot pipeline sync + compositing) "
      "and dwarfs the adaptor cost — the Fig 15 shape; amortized over the "
      "1-in-5 cadence it is the paper's 1-1.5 s/step average");
  fig15.print();

  // The §4.2.2 post hoc contrast: 24 s to write one 1025^3 timestep.
  perfmodel::LeslieScale at65k;
  at65k.ranks = 65536;
  const io::LustreModel fs(titan.fs);
  // Reactive multi-species state: ~13 field variables per point.
  const std::uint64_t volume_bytes =
      static_cast<std::uint64_t>(at65k.total_points) * sizeof(double) * 13 /
      static_cast<std::uint64_t>(at65k.ranks);
  pal::TablePrinter contrast("§4.2.2: in situ vs writing volume data (65K)");
  contrast.set_header({"path", "cost (s)", "paper"});
  contrast.add_row(
      {"write one volume timestep",
       pal::TablePrinter::num(
           fs.file_per_rank_write_time(at65k.ranks, volume_bytes), 1),
       "~24 s"});
  contrast.add_row(
      {"in situ render (every 5th step, amortized)",
       pal::TablePrinter::num(
           perfmodel::leslie_insitu_render_seconds(titan, at65k) / 5.0, 2),
       "1-1.5 s/step"});
  contrast.add_note("paper: 3-4x greater temporal resolution for the cost");
  contrast.print();
}

}  // namespace

int main(int argc, char** argv) {
  bench::ObsSession obs(argc, argv);
  std::printf("=== bench: Fig 15 & Fig 16 — AVF-LESLIE on Titan ===\n");
  executed_run();
  paper_scale_tables();
  return obs.finish();
}
