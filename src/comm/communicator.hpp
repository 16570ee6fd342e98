#pragma once

// SPMD communicator over in-process ranks (threads).
//
// The API deliberately mirrors the MPI subset the paper's software stack
// uses: point-to-point send/recv with tags, broadcast, reduce, allreduce,
// gather(v), allgather, exclusive scan, barrier, and communicator split.
// Collectives must be invoked by every rank of the communicator in the
// same order (standard SPMD contract).
//
// Every operation advances the calling rank's VirtualClock using the
// communicator's MachineModel, so algorithms written against this API are
// simultaneously *executed* (data is really exchanged between threads) and
// *performance-modeled* (virtual time reproduces cluster cost shapes).

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "comm/machine_model.hpp"
#include "comm/virtual_clock.hpp"
#include "obs/metrics.hpp"
#include "pal/rng.hpp"

namespace insitu::comm {

namespace detail {
class Group;  // shared state for one communicator (mailboxes + collectives)
}

/// Immutable blob published into a gather/allgather. A contributor copies
/// its data exactly once; every reader aliases that copy through the
/// shared pointer instead of receiving a deep copy of all P blobs.
using Blob = std::vector<std::byte>;
using BlobPtr = std::shared_ptr<const Blob>;

/// Rank-indexed table of published blobs; one shared instance per
/// collective round, aliased by every reader.
using BlobTable = std::vector<BlobPtr>;
using BlobTablePtr = std::shared_ptr<const BlobTable>;

/// Element-wise combination used by reduce/allreduce/scan.
enum class ReduceOp { kSum, kMin, kMax, kProd };

template <typename T>
void combine_values(ReduceOp op, const T* in, T* acc, std::size_t count) {
  switch (op) {
    case ReduceOp::kSum:
      for (std::size_t i = 0; i < count; ++i) acc[i] += in[i];
      break;
    case ReduceOp::kMin:
      for (std::size_t i = 0; i < count; ++i) {
        if (in[i] < acc[i]) acc[i] = in[i];
      }
      break;
    case ReduceOp::kMax:
      for (std::size_t i = 0; i < count; ++i) {
        if (in[i] > acc[i]) acc[i] = in[i];
      }
      break;
    case ReduceOp::kProd:
      for (std::size_t i = 0; i < count; ++i) acc[i] *= in[i];
      break;
  }
}

class Communicator {
 public:
  Communicator(std::shared_ptr<detail::Group> group, int rank,
               VirtualClock* clock, const MachineModel* machine,
               pal::Rng* rng);

  int rank() const { return rank_; }
  int size() const;
  bool is_root() const { return rank_ == 0; }

  VirtualClock& clock() { return *clock_; }
  const VirtualClock& clock() const { return *clock_; }
  const MachineModel& machine() const { return *machine_; }
  pal::Rng& rng() { return *rng_; }

  /// Advance this rank's virtual clock by a modeled compute duration.
  void advance_compute(double seconds) { clock_->advance(seconds); }

  // ---- point to point ----

  /// Buffered (eager) send; never blocks. Copies `data` into a fresh
  /// message buffer; `send(dest, tag, {})` sends an empty message.
  void send(int dest, int tag, std::span<const std::byte> data);

  /// Buffered send that moves `payload` into the receiver's mailbox: the
  /// matching recv() returns this very buffer, uncopied. Cost and counters
  /// depend on payload.size() alone, exactly as for the span overload.
  /// Constrained to rvalue std::vector<std::byte> so that lvalue vectors
  /// and a braced `{}` still resolve to the span overload.
  template <typename Bytes>
    requires std::same_as<Bytes, std::vector<std::byte>>
  void send(int dest, int tag, Bytes&& payload) {
    send_bytes(dest, tag, std::move(payload));
  }

  /// Blocking receive matching (src, tag) in FIFO order.
  std::vector<std::byte> recv(int src, int tag);

  /// Blocking receive matching any source with the given tag.
  std::vector<std::byte> recv_any(int tag, int* src_out = nullptr);

  /// True if a matching message is already queued (non-advancing probe).
  bool probe(int src, int tag) const;

  template <typename T>
  void send_values(int dest, int tag, std::span<const T> values) {
    static_assert(std::is_trivially_copyable_v<T>);
    send(dest, tag, std::as_bytes(values));
  }

  template <typename T>
  std::vector<T> recv_values(int src, int tag) {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::vector<std::byte> raw = recv(src, tag);
    std::vector<T> values(raw.size() / sizeof(T));
    // memcpy forbids the null data() of an empty vector.
    if (!values.empty()) {
      std::memcpy(values.data(), raw.data(), values.size() * sizeof(T));
    }
    return values;
  }

  // ---- collectives ----

  void barrier();

  /// Broadcast `data` from `root`; resized on non-root ranks.
  template <typename T>
  void broadcast(std::vector<T>& data, int root) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::vector<std::byte> blob =
        coll_bcast(std::as_bytes(std::span<const T>(data)), root);
    if (rank_ != root) {
      data.resize(blob.size() / sizeof(T));
      std::memcpy(data.data(), blob.data(), blob.size());
    }
  }

  template <typename T>
  void broadcast_value(T& value, int root) {
    std::vector<T> one(1, value);
    broadcast(one, root);
    value = one[0];
  }

  /// Element-wise reduction to `root`. `in` and `out` must have the same
  /// length on every rank; `out` is only meaningful at the root.
  template <typename T>
  void reduce(std::span<const T> in, std::span<T> out, ReduceOp op,
              int root) {
    static_assert(std::is_trivially_copyable_v<T>);
    coll_reduce(
        in.data(), out.data(), in.size() * sizeof(T), root,
        /*all=*/false, [op](void* acc, const void* contrib, std::size_t bytes) {
          combine_values(op, static_cast<const T*>(contrib),
                         static_cast<T*>(acc), bytes / sizeof(T));
        });
  }

  template <typename T>
  T reduce_value(T value, ReduceOp op, int root) {
    T out{};
    reduce(std::span<const T>(&value, 1), std::span<T>(&out, 1), op, root);
    return out;
  }

  /// Element-wise reduction delivered to all ranks.
  template <typename T>
  void allreduce(std::span<T> values, ReduceOp op) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::vector<T> in(values.begin(), values.end());
    coll_reduce(
        in.data(), values.data(), in.size() * sizeof(T), /*root=*/0,
        /*all=*/true, [op](void* acc, const void* contrib, std::size_t bytes) {
          combine_values(op, static_cast<const T*>(contrib),
                         static_cast<T*>(acc), bytes / sizeof(T));
        });
  }

  template <typename T>
  T allreduce_value(T value, ReduceOp op) {
    allreduce(std::span<T>(&value, 1), op);
    return value;
  }

  /// Variable-size gather: every rank contributes a blob; the root receives
  /// all blobs in rank order (empty elsewhere).
  template <typename T>
  std::vector<std::vector<T>> gatherv(std::span<const T> mine, int root) {
    static_assert(std::is_trivially_copyable_v<T>);
    BlobTablePtr table = coll_gather(std::as_bytes(mine), root);
    std::vector<std::vector<T>> out;
    if (rank_ != root) return out;
    out.reserve(table->size());
    for (const BlobPtr& blob : *table) {
      std::vector<T> values(blob->size() / sizeof(T));
      if (!values.empty()) {
        std::memcpy(values.data(), blob->data(), values.size() * sizeof(T));
      }
      out.push_back(std::move(values));
    }
    return out;
  }

  /// Allgather of one value per rank, returned in rank order on all ranks.
  template <typename T>
  std::vector<T> allgather_value(T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    BlobTablePtr table =
        coll_exchange(std::as_bytes(std::span<const T>(&value, 1)));
    std::vector<T> out(table->size());
    for (std::size_t r = 0; r < table->size(); ++r) {
      std::memcpy(&out[r], (*table)[r]->data(), sizeof(T));
    }
    return out;
  }

  /// Variable-size allgather.
  template <typename T>
  std::vector<std::vector<T>> allgatherv(std::span<const T> mine) {
    static_assert(std::is_trivially_copyable_v<T>);
    BlobTablePtr table = coll_exchange(std::as_bytes(mine));
    std::vector<std::vector<T>> out;
    out.reserve(table->size());
    for (const BlobPtr& blob : *table) {
      std::vector<T> values(blob->size() / sizeof(T));
      if (!values.empty()) {
        std::memcpy(values.data(), blob->data(), values.size() * sizeof(T));
      }
      out.push_back(std::move(values));
    }
    return out;
  }

  /// Zero-copy allgather: publishes `mine` once and returns the shared
  /// rank-indexed blob table. Every rank's table aliases the same
  /// per-contributor copies, so the data volume is O(total bytes), not
  /// O(P * total bytes). Table and blobs are immutable and stay valid as
  /// long as the caller holds the pointer.
  BlobTablePtr allgather_blobs(std::span<const std::byte> mine);

  /// Exclusive prefix scan (rank 0 receives the identity-initialized T{}).
  template <typename T>
  T exscan_value(T value, ReduceOp op) {
    std::vector<T> all = allgather_value(value);
    T acc{};
    if (op == ReduceOp::kProd) acc = T{1};
    if (op == ReduceOp::kMin || op == ReduceOp::kMax) acc = all[0];
    for (int r = 0; r < rank_; ++r) {
      combine_values(op, &all[r], &acc, 1);
    }
    // Rank 0 of min/max has no prefix; keep its own value as identity.
    return acc;
  }

  /// Partition ranks by `color`; ranks sharing a color form a new
  /// communicator ordered by (key, old rank). Collective.
  Communicator split(int color, int key);

  /// Same group, rank, and machine, but advancing `clock` (and drawing
  /// from `rng`, when given) instead of this communicator's. The async
  /// execution engine hands analysis-plane collectives to worker threads
  /// on a worker-owned clock so overlapped analysis does not advance
  /// simulation time; pair with split() so the worker plane also gets its
  /// own rendezvous state. Not collective.
  Communicator sibling(VirtualClock* clock, pal::Rng* rng = nullptr) const;

 private:
  /// The one send implementation; both send() overloads land here.
  void send_bytes(int dest, int tag, std::vector<std::byte>&& payload);

  std::vector<std::byte> coll_bcast(std::span<const std::byte> data, int root);
  void coll_reduce(
      const void* in, void* out, std::size_t bytes, int root, bool all,
      const std::function<void(void*, const void*, std::size_t)>& combine);
  BlobTablePtr coll_gather(std::span<const std::byte> mine, int root);
  BlobTablePtr coll_exchange(std::span<const std::byte> mine);
  /// Bumps comm.collective.{calls,wait.seconds,contended} for one
  /// finished collective. `op` indexes coll_metrics_ (detail::CollOp).
  void record_coll_stats(int op, double wait_seconds, std::int64_t contended);

  std::shared_ptr<detail::Group> group_;
  int rank_;
  VirtualClock* clock_;
  const MachineModel* machine_;
  pal::Rng* rng_;

  // p2p metrics handles, bound lazily to the calling rank's registry so
  // the hot send/recv path skips the registry lookup after first use.
  obs::Counter* bytes_sent_ = nullptr;
  obs::Counter* msgs_sent_ = nullptr;
  obs::Counter* bytes_recv_ = nullptr;

  // Collective metrics handles, one set per collective op, bound lazily
  // like the p2p handles above, so the rendezvous hot path never
  // rebuilds label vectors or touches the registry maps.
  struct CollMetricHandles {
    obs::Counter* calls = nullptr;
    obs::Histogram* wait = nullptr;
    obs::Counter* contended = nullptr;
  };
  static constexpr int kNumCollOps = 6;
  CollMetricHandles coll_metrics_[kNumCollOps];

  // comm.bytes_sent{op=...} handles for the collectives, bound lazily
  // like the p2p handles above; indexed by CollBytesOp.
  enum CollBytesOp {
    kBytesBcast,
    kBytesReduce,
    kBytesAllreduce,
    kBytesGather,
    kBytesAllgather,
    kNumCollBytesOps,
  };
  /// Bytes contributed to a collective by the calling rank.
  obs::Counter& collective_bytes(CollBytesOp op);
  obs::Counter* coll_bytes_[kNumCollBytesOps] = {};
};

}  // namespace insitu::comm
