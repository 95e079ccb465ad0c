// Durable λ batch checkpoints (docs/fault_tolerance.md "Elastic recovery").
//
// The batch driver already replicates λ across each base-grid row at every
// batch boundary so a rank failure rolls back one batch, not the whole run.
// That replica lives in simulated memory: a *fatal* failure (an
// unrecoverable schedule, a killed process) still loses everything. This
// module persists the same checkpoint as a versioned file so a rerun with
// --resume restarts from the last complete batch.
//
// File format `mfbc.ckpt.v1` (little-endian, the only byte order the
// simulator targets):
//
//   offset  size              field
//   0       13                magic line "mfbc.ckpt.v1\n"
//   13      8                 u64 n            (vertex count)
//   21      8                 u64 batches_done (complete batches in λ)
//   29      8                 u64 source_sig   (FNV-1a over n, batch size,
//                                               the resolved source list and
//                                               the graph's signature)
//   37      8                 u64 lambda_count (== n)
//   45      8·lambda_count    λ doubles, raw bit patterns
//   ...     8                 u64 FNV-1a checksum over all preceding bytes
//
// Raw double bit patterns make a resumed run bit-identical to the
// uninterrupted one by construction. Loading verifies, in order: the magic
// (version mismatch), the declared sizes against the file size (truncation),
// and the checksum (corruption) — a bad file is always reported via
// mfbc::Error, never silently loaded. Writes go to a temp file in the same
// directory followed by a rename, so a crash mid-write leaves the previous
// checkpoint intact.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.hpp"

namespace mfbc::core {

inline constexpr const char kCheckpointMagic[] = "mfbc.ckpt.v1\n";

struct LambdaCheckpoint {
  std::uint64_t n = 0;
  std::uint64_t batches_done = 0;
  std::uint64_t source_sig = 0;
  std::vector<double> lambda;
};

/// FNV-1a 64-bit over a byte range (the format's checksum primitive).
std::uint64_t fnv1a(const void* data, std::size_t bytes,
                    std::uint64_t seed = 0xCBF29CE484222325ull);

/// Signature binding a checkpoint to its run shape: n, batch size, the
/// resolved source list and — when nonzero — the graph's structural
/// signature (graph/mutate.hpp). A checkpoint from a different graph
/// version, batching, or source set must never resume a run it does not
/// describe. graph_sig = 0 (the default) leaves the graph out; the engines
/// always pass the signature of the graph they compute on.
std::uint64_t source_signature(graph::vid_t n, graph::vid_t batch_size,
                               const std::vector<graph::vid_t>& sources,
                               std::uint64_t graph_sig = 0);

/// The checkpoint file inside `dir` (a fixed name: one run per directory).
std::string checkpoint_path(const std::string& dir);

/// Atomically write `ck` as `checkpoint_path(dir)` (temp file + rename).
/// Throws mfbc::Error on I/O failure.
void save_checkpoint(const std::string& dir, const LambdaCheckpoint& ck);

/// Load and fully verify a checkpoint. Throws mfbc::Error naming the file
/// and the defect (missing, version mismatch, truncated, checksum mismatch).
LambdaCheckpoint load_checkpoint(const std::string& dir);

}  // namespace mfbc::core
