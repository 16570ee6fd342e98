#pragma once

// Distributed image compositing.
//
// §4.1.3: "there is a costly compositing operation that involves
// communication of image-sized buffers among a hierarchical set of ranks
// to ultimately produce a final composite image on a single rank ...
// Catalyst and Libsim use different compositing algorithms, but both
// perform essentially the same task."
//
// Two algorithms are provided: a binomial-tree composite (full image per
// stage — the Catalyst-like default here) and binary swap (halving image
// regions per stage — the Libsim-like default). Both really move pixels
// between rank threads, so both their results and their virtual-time cost
// structures are exercised. bench/ablation_compositing compares them.
//
// Compositing is in place and copy-free: each rank's frame is the working
// buffer the partners' pixels merge into. A sender packs its range into a
// buffer from pal::buffer_pool() and moves it into the message; the
// receiver merges it and releases it back to the pool, so a step that
// reuses its frames allocates nothing once the pool is warm. Virtual time
// prices a message by its size only, so none of this moves a clock.

#include "comm/communicator.hpp"
#include "render/image.hpp"

namespace insitu::render {

enum class CompositeAlgorithm { kTree, kBinarySwap };

/// Depth-composite every rank's `frame` (nearer fragment wins) into rank
/// 0's `frame`. Collective; all ranks pass identically-sized frames.
/// Returns true on rank 0, where `frame` now holds the full composite.
/// Returns false elsewhere, leaving that rank's `frame` with unspecified
/// (partially merged) contents: clear it before rendering into it again.
bool composite(comm::Communicator& comm, Image& frame,
               CompositeAlgorithm algorithm);

}  // namespace insitu::render
