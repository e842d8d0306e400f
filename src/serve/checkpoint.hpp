// Versioned binary session checkpoints: FilterState<T> <-> byte blob.
//
// Layout (all integers little-endian; scalars are raw IEEE-754 bytes of T):
//
//   offset  size  field
//   0       4     magic "ESCP"
//   4       4     u32 format version (kCheckpointVersion)
//   8       4     u32 sizeof(scalar)
//   12      4     u32 generator core (0 = MTGP, 1 = Philox)
//   16      8     u64 particles_per_filter (m)
//   24      8     u64 num_filters (N)
//   32      8     u64 state_dim
//   40      8     u64 step index
//   48      8     u64 rng round
//   56      8     u64 rng word count W
//   64      ...   W   u32 rng words (per group: 624 MT state words + index)
//           ...       N*m*dim scalars: particle states (AoS)
//           ...       N*m     scalars: log-weights
//           ...       dim     scalars: estimate
//           ...       1       scalar:  estimate log-weight
//   end-8   8     u64 checksum over every preceding byte
//
// Checksum (version 2, checkpoint_checksum): the bytes are read as
// little-endian u64 words, word i going to lane i % 4 of four interleaved
// lanes, each updated as h = rotl((h ^ word) * K, 31) with K odd. The last
// n % 8 bytes form one zero-padded tail word. The result is
// mix(... mix(mix(mix(n) ^ tail) ^ lane0) ... ^ lane3), mix being the
// bijective SplitMix64 finalizer. Every step is a bijection of the value
// it folds in, so any change confined to one 8-byte word - in particular
// any single flipped bit - always changes the checksum, by construction;
// folding in n separates blobs that differ only by trailing zero bytes.
// On a little-endian host the MT words are copied with one memcpy each
// way (the scalar arrays always are).
//
// Version 1 has the identical layout with an FNV-1a 64 trailer, hashed one
// byte at a time. decode_checkpoint() still reads version-1 blobs, choosing
// the checksum from the version field, so spill files written by an earlier
// build restore after an upgrade; encode_checkpoint() writes only version 2.
// Version-1 support is removed in the first release after 1.0.x.
//
// decode_checkpoint() refuses, with a CheckpointError naming the cause:
// blobs shorter than the fixed header (truncated), wrong magic, a version
// other than 1 or kCheckpointVersion (refusal, never a silent best-effort
// parse), a scalar width not matching T, declared array extents that
// overrun the blob (truncation/corruption), an rng word count that does
// not fit the generator core and N, trailing garbage, and any
// checksum mismatch (bit corruption). Restores are bit-identical:
// encode(decode(b)) == b for a current-version b, and a restored filter
// reproduces the source filter's estimate trajectory exactly
// (test-enforced).
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/filter_state.hpp"

namespace esthera::serve {

/// Format version encode_checkpoint() writes. decode_checkpoint() reads
/// it and version 1 (see the layout comment above).
inline constexpr std::uint32_t kCheckpointVersion = 2;

/// Raised on any malformed, truncated, corrupt, or incompatible blob.
class CheckpointError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Serializes a filter snapshot into a self-validating binary blob.
template <typename T>
[[nodiscard]] std::vector<std::uint8_t> encode_checkpoint(
    const core::FilterState<T>& state);

/// Parses a blob produced by encode_checkpoint<T>. Throws CheckpointError
/// with a message naming the failure (truncation, bad magic, version
/// mismatch, scalar-width mismatch, checksum mismatch, ...).
template <typename T>
[[nodiscard]] core::FilterState<T> decode_checkpoint(
    std::span<const std::uint8_t> blob);

/// The version-2 checksum of `bytes` (see the layout comment above). A
/// blob's trailer is the checksum of everything before it; tests that
/// mutate header fields re-sign blobs with this.
[[nodiscard]] std::uint64_t checkpoint_checksum(std::span<const std::uint8_t> bytes);

/// Peeks the format version of a blob (for diagnostics); throws
/// CheckpointError when the blob is too short to carry one or the magic
/// is wrong.
[[nodiscard]] std::uint32_t checkpoint_version(std::span<const std::uint8_t> blob);

}  // namespace esthera::serve
