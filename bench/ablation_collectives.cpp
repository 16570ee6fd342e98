// Ablation: the combining-tree collective engine under both scheduler
// backends.
//
// The engine's contract (docs/SCALING.md) is that *how* a rendezvous
// executes is invisible to *what* it computes: virtual time comes from
// MachineModel charges and reductions fold in a canonical order, so the
// results must not depend on the scheduler backend or on arrival order.
// Three phases:
//
//   1. identity — the executed oscillator + histogram + Catalyst-slice
//      pipeline under sched=threads and sched=mn with a deliberately
//      small arity (4) so even 16 executed ranks exercise a multi-level
//      tree; gates bit-identical per-rank virtual times, histogram
//      contents, and rendered-image hashes across both arms.
//   2. determinism — a chained floating-point sum allreduce (the
//      order-sensitive case) run twice per backend at 96 ranks /
//      arity 4; gates bit-identical results across repeats and
//      backends. This is what the canonical blocked combine schedule
//      buys: the fold order depends only on (P, arity), never on
//      arrival order.
//   3. wall — a collective-heavy loop (barrier + allreduce + allgather
//      + periodic gatherv) at 4K/10K executed ranks under sched=mn at
//      the default arity. Reports wall clock only. `ranks=` replaces
//      the rank list — e.g. `ranks=45440` for the paper-scale run.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "analysis/histogram.hpp"
#include "backends/catalyst.hpp"
#include "comm/runtime.hpp"
#include "comm/sched.hpp"
#include "core/bridge.hpp"
#include "miniapp/adaptor.hpp"
#include "pal/table.hpp"

#include "bench_common.hpp"

namespace {

using namespace insitu;

constexpr int kSteps = 10;
constexpr int kIdentityArity = 4;
constexpr int kWallIters = 16;

struct Arm {
  const char* name;  ///< run-label part; "tree/" keeps the baseline labels
  comm::SchedBackend backend;
};

constexpr Arm kIdentityArms[] = {
    {"tree/threads", comm::SchedBackend::kThreads},
    {"tree/mn", comm::SchedBackend::kMn},
};

struct ArmResult {
  std::vector<double> rank_times;  ///< per-rank virtual seconds
  double total = 0.0;              ///< end-to-end virtual seconds
  std::vector<std::int64_t> bins;  ///< final histogram (root)
  std::uint64_t image_hash = 0;    ///< final slice image (root)
  double wall_seconds = 0.0;
};

/// The standard ablation pipeline (same as bench/ablation_sched) under
/// one backend arm at kIdentityArity.
ArmResult run_identity_arm(const Arm& arm, int ranks,
                           const std::string& label) {
  ArmResult result;
  bench::ObsSession* obs = bench::ObsSession::current();
  comm::Runtime::Options options = bench::ablation_options();
  options.sched.backend = arm.backend;
  options.coll_arity = kIdentityArity;

  const auto wall0 = std::chrono::steady_clock::now();
  comm::RunReport report = comm::Runtime::run(
      ranks, options, [&](comm::Communicator& comm) {
        miniapp::OscillatorSim sim(comm,
                                   bench::ablation_oscillator_config(16, 3.0));
        sim.initialize();
        miniapp::OscillatorDataAdaptor adaptor(sim);

        auto hist = std::make_shared<analysis::HistogramAnalysis>(
            "data", data::Association::kPoint, 64);
        backends::CatalystSliceConfig cs;
        cs.image_width = 256;
        cs.image_height = 144;
        cs.scalar_min = -1.5;
        cs.scalar_max = 1.5;
        auto slice = std::make_shared<backends::CatalystSlice>(cs);

        core::InSituBridge bridge(&comm);
        bridge.add_analysis(hist);
        bridge.add_analysis(slice);
        (void)bridge.initialize();
        for (int s = 0; s < kSteps; ++s) {
          sim.step();
          (void)bridge.execute(adaptor, sim.time(), s);
        }
        (void)bridge.finalize();
        if (comm.rank() == 0) {
          result.bins = hist->last_result().bins;
          result.image_hash = slice->last_image().color_hash();
        }
      });
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - wall0;
  result.wall_seconds = wall.count();
  result.total = report.max_virtual_seconds();
  result.rank_times.reserve(report.ranks.size());
  for (const comm::RankStats& r : report.ranks) {
    result.rank_times.push_back(r.virtual_seconds);
  }
  if (obs != nullptr) obs->record(label, report);
  return result;
}

/// Chained float-sum allreduce: every rank contributes values derived
/// from its rank, and each round feeds the previous result back in, so
/// any combine-order difference compounds instead of cancelling.
/// Returns the final bit pattern (identical on all ranks; rank 0's).
std::vector<std::uint64_t> run_float_determinism_arm(
    comm::SchedBackend backend, int ranks) {
  comm::Runtime::Options options = bench::ablation_options();
  options.observe.trace = false;
  options.sched.backend = backend;
  options.coll_arity = kIdentityArity;

  constexpr std::size_t kValues = 16;
  std::vector<std::uint64_t> bits(kValues, 0);
  (void)comm::Runtime::run(ranks, options, [&](comm::Communicator& comm) {
    std::vector<double> values(kValues);
    for (std::size_t i = 0; i < kValues; ++i) {
      // Deliberately awkward magnitudes: summing ranks in a different
      // order changes the rounding of these immediately.
      values[i] = (comm.rank() + 1) * 1e-7 +
                  (comm.rank() % 7) * 1.0 / 3.0 +
                  static_cast<double>(i) * 0.1;
    }
    for (int round = 0; round < 8; ++round) {
      comm.allreduce(std::span<double>(values), comm::ReduceOp::kSum);
      for (std::size_t i = 0; i < kValues; ++i) {
        values[i] = values[i] / comm.size() + comm.rank() * 1e-9;
      }
    }
    if (comm.rank() == 0) {
      for (std::size_t i = 0; i < kValues; ++i) {
        std::memcpy(&bits[i], &values[i], sizeof(double));
      }
    }
  });
  return bits;
}

/// Collective-heavy loop at large executed scale: no simulation, just
/// the rendezvous traffic of a tightly coupled analysis pipeline.
double run_wall(int ranks) {
  comm::Runtime::Options options = bench::ablation_options();
  options.observe.trace = false;  // 10K-rank traces would dominate the wall
  options.sched.backend = comm::SchedBackend::kMn;

  const auto wall0 = std::chrono::steady_clock::now();
  std::atomic<std::uint64_t> sink{0};
  (void)comm::Runtime::run(ranks, options, [&](comm::Communicator& comm) {
    double payload[8];
    for (int i = 0; i < 8; ++i) payload[i] = comm.rank() * 0.001 + i;
    std::uint64_t local = 0;
    for (int iter = 0; iter < kWallIters; ++iter) {
      comm.barrier();
      comm.allreduce(std::span<double>(payload, 8), comm::ReduceOp::kSum);
      if (iter % 4 == 1) {
        // Every rank gets an aliased view of the one shared table.
        const comm::BlobTablePtr table = comm.allgather_blobs(
            std::as_bytes(std::span<const double>(payload, 8)));
        local += table->front()->size() + table->back()->size();
      }
      if (iter % 4 == 3) {
        const std::int32_t mine = comm.rank();
        (void)comm.gatherv(std::span<const std::int32_t>(&mine, 1), 0);
      }
    }
    sink.fetch_add(local, std::memory_order_relaxed);
  });
  if (sink.load() == 0) std::fprintf(stderr, "warning: empty allgather\n");
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  bench::ObsSession obs(argc, argv);
  std::printf("=== bench: ablation — collective engine ===\n");
  int rc = 0;

  // ---- phase 1: identity ----
  {
    pal::TablePrinter table(
        "Oscillator 16^3 + histogram + Catalyst slice (executed, " +
        std::to_string(kSteps) + " steps, coll arity " +
        std::to_string(kIdentityArity) + ")");
    table.set_header({"ranks", "engine/backend", "end-to-end virt (s)",
                      "histogram total", "image hash", "wall (s)"});
    for (const int ranks : {4, 16, 64}) {
      ArmResult arms[std::size(kIdentityArms)];
      for (std::size_t i = 0; i < std::size(kIdentityArms); ++i) {
        arms[i] = run_identity_arm(kIdentityArms[i], ranks,
                                   std::string("pipeline/") +
                                       kIdentityArms[i].name + "/p" +
                                       std::to_string(ranks));
        std::int64_t total_count = 0;
        for (const std::int64_t b : arms[i].bins) total_count += b;
        char hash[32];
        std::snprintf(hash, sizeof hash, "%016llx",
                      static_cast<unsigned long long>(arms[i].image_hash));
        table.add_row({std::to_string(ranks), kIdentityArms[i].name,
                       pal::TablePrinter::num(arms[i].total, 7),
                       std::to_string(total_count), hash,
                       pal::TablePrinter::num(arms[i].wall_seconds, 3)});
      }
      const ArmResult& ref = arms[0];
      for (std::size_t i = 1; i < std::size(kIdentityArms); ++i) {
        if (arms[i].rank_times != ref.rank_times ||
            arms[i].total != ref.total) {
          std::fprintf(stderr,
                       "FAIL: %s virtual times differ from %s at %d ranks\n",
                       kIdentityArms[i].name, kIdentityArms[0].name, ranks);
          rc = 1;
        }
        if (arms[i].bins != ref.bins) {
          std::fprintf(stderr, "FAIL: %s histogram differs at %d ranks\n",
                       kIdentityArms[i].name, ranks);
          rc = 1;
        }
        if (arms[i].image_hash != ref.image_hash) {
          std::fprintf(stderr, "FAIL: %s image differs at %d ranks\n",
                       kIdentityArms[i].name, ranks);
          rc = 1;
        }
      }
    }
    table.add_note("backends must be interchangeable: bit-identical per-rank "
                   "virtual times, histograms, and images");
    table.print();
  }

  // ---- phase 2: float determinism ----
  {
    constexpr int kRanks = 96;  // 4 tree levels at arity 4
    std::vector<std::uint64_t> reference;
    bool determinism_ok = true;
    for (const Arm& arm : kIdentityArms) {
      for (int repeat = 0; repeat < 2; ++repeat) {
        const std::vector<std::uint64_t> bits =
            run_float_determinism_arm(arm.backend, kRanks);
        if (reference.empty()) {
          reference = bits;
        } else if (bits != reference) {
          std::fprintf(stderr,
                       "FAIL: float allreduce bits differ (%s, repeat %d)\n",
                       arm.name, repeat);
          determinism_ok = false;
          rc = 1;
        }
      }
    }
    std::printf("\nfloat allreduce determinism (%d ranks, arity %d, "
                "8 chained sums x 2 repeats x 2 backends): %s\n",
                kRanks, kIdentityArity,
                determinism_ok ? "bit-identical" : "FAILED");
  }

  // ---- phase 3: wall clock at scale ----
  {
    std::vector<int> rank_counts = {4096, 10240};
    if (bench::ObsSession::current() != nullptr &&
        !bench::ObsSession::current()->ranks_override().empty()) {
      rank_counts = bench::ObsSession::current()->ranks_override();
    }
    pal::TablePrinter table(
        "Collective-heavy loop (sched=mn, " + std::to_string(kWallIters) +
        " iters of barrier+allreduce, allgather + gatherv every 4th)");
    table.set_header({"ranks", "wall (s)"});
    for (const int ranks : rank_counts) {
      table.add_row({std::to_string(ranks),
                     pal::TablePrinter::num(run_wall(ranks), 3)});
    }
    table.add_note("wall seconds are host-dependent and report-only");
    table.add_note("ranks= replaces the list, e.g. ranks=45440 for the "
                   "paper-scale run");
    table.print();
  }

  const int obs_rc = obs.finish();
  return rc != 0 ? rc : obs_rc;
}
