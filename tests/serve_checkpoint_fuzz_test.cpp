// Randomized-corruption tests for the ESCP checkpoint decoder: seed-driven
// byte flips, truncations, span scrambles, and checksum-re-signed header
// field mutations over valid blobs. The contract under ANY input is "throw
// CheckpointError or produce a self-consistent state" - never crash, never
// read out of bounds (the sanitizer jobs run this suite under ASan+UBSan),
// and never silently accept a blob that re-encodes differently.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "core/distributed_pf.hpp"
#include "models/robot_arm.hpp"
#include "serve/checkpoint.hpp"
#include "serve/spill_store.hpp"
#include "sim/ground_truth.hpp"

namespace {

using namespace esthera;

using ArmModel = models::RobotArmModel<float>;
using ArmFilter = core::DistributedParticleFilter<ArmModel>;

/// A valid blob from a short filter run: the corpus every mutation starts
/// from.
std::vector<std::uint8_t> valid_blob() {
  sim::RobotArmScenario scenario;
  scenario.reset(5);
  core::FilterConfig cfg;
  cfg.particles_per_filter = 16;
  cfg.num_filters = 4;
  cfg.seed = 21;
  cfg.workers = 1;
  ArmFilter pf(scenario.make_model<float>(), cfg);
  std::vector<float> z, u;
  for (int k = 0; k < 4; ++k) {
    const auto step = scenario.advance();
    z.assign(step.z.begin(), step.z.end());
    u.assign(step.u.begin(), step.u.end());
    pf.step(z, u);
  }
  return serve::encode_checkpoint<float>(pf.export_state());
}

/// Re-signs the blob through the encoder's own checksum, so field mutations
/// reach the structural validation behind the checksum gate.
void resign(std::vector<std::uint8_t>& blob) {
  ASSERT_GE(blob.size(), 8u);
  const std::uint64_t sum =
      serve::checkpoint_checksum(std::span(blob).first(blob.size() - 8));
  for (int b = 0; b < 8; ++b) {
    blob[blob.size() - 8 + static_cast<std::size_t>(b)] =
        static_cast<std::uint8_t>(sum >> (8 * b));
  }
}

/// Decodes a mutated blob. Any CheckpointError is a pass; a successful
/// decode must survive re-encode -> re-decode bit-identically (no silent
/// divergence). Returns true when the blob was rejected.
bool decode_must_reject_or_roundtrip(std::span<const std::uint8_t> blob) {
  try {
    const auto state = serve::decode_checkpoint<float>(blob);
    const auto re = serve::encode_checkpoint<float>(state);
    const auto again = serve::decode_checkpoint<float>(re);
    EXPECT_EQ(serve::encode_checkpoint<float>(again), re)
        << "accepted blob must be self-consistent";
    return false;
  } catch (const serve::CheckpointError&) {
    return true;  // structured refusal: the expected outcome
  }
  // Any other exception type (or a crash) fails the test by escaping.
}

TEST(ServeCheckpointFuzz, SingleByteFlipsAreAlwaysRejected) {
  const auto blob = valid_blob();
  std::mt19937_64 gen(0xf00d);
  for (int trial = 0; trial < 300; ++trial) {
    auto mutated = blob;
    const std::size_t pos = gen() % mutated.size();
    const auto mask = static_cast<std::uint8_t>(1u << (gen() % 8));
    mutated[pos] ^= mask;
    // The trailing checksum covers every byte, so any single flip - in the
    // header, payload, or the checksum itself - must be caught.
    EXPECT_TRUE(decode_must_reject_or_roundtrip(mutated))
        << "flip at byte " << pos << " mask " << int(mask) << " accepted";
  }
}

TEST(ServeCheckpointFuzz, RandomTruncationsNeverCrash) {
  const auto blob = valid_blob();
  std::mt19937_64 gen(0xbeef);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t keep = gen() % (blob.size() + 1);
    const std::vector<std::uint8_t> cut(blob.begin(),
                                        blob.begin() + static_cast<long>(keep));
    if (keep == blob.size()) {
      EXPECT_FALSE(decode_must_reject_or_roundtrip(cut));
    } else {
      EXPECT_TRUE(decode_must_reject_or_roundtrip(cut)) << "keep=" << keep;
    }
  }
}

TEST(ServeCheckpointFuzz, ScrambledSpansAreAlwaysRejected) {
  const auto blob = valid_blob();
  std::mt19937_64 gen(0xcafe);
  for (int trial = 0; trial < 150; ++trial) {
    auto mutated = blob;
    const std::size_t start = gen() % mutated.size();
    const std::size_t len =
        std::min<std::size_t>(1 + gen() % 64, mutated.size() - start);
    bool changed = false;
    for (std::size_t i = 0; i < len; ++i) {
      const auto r = static_cast<std::uint8_t>(gen());
      changed = changed || r != mutated[start + i];
      mutated[start + i] = r;
    }
    if (!changed) continue;  // the scramble happened to be the identity
    EXPECT_TRUE(decode_must_reject_or_roundtrip(mutated))
        << "scramble [" << start << ", " << start + len << ") accepted";
  }
}

TEST(ServeCheckpointFuzz, ResignedHeaderFieldMutationsRejectOrRoundTrip) {
  // Overwrite one header field with a random value and re-sign the blob,
  // so the mutation reaches the structural checks behind the checksum:
  // extents that overrun the blob, zero dimensions, wrong scalar width,
  // unknown generator, foreign version. Adversarial extents (huge u64s)
  // must hit the overflow-checked size math, not a crash or a giant
  // allocation-and-read.
  const auto blob = valid_blob();
  std::mt19937_64 gen(0xd00dull);
  const std::size_t field_offsets[] = {4,  8,  12, 16, 24,
                                       32, 40, 48, 56};  // all header ints
  int accepted = 0;
  for (int trial = 0; trial < 400; ++trial) {
    auto mutated = blob;
    const std::size_t off =
        field_offsets[gen() % (sizeof(field_offsets) / sizeof(*field_offsets))];
    const std::size_t width = off < 16 ? 4 : 8;
    std::uint64_t value = gen();
    switch (gen() % 4) {
      case 0: value &= 0xff; break;              // small values
      case 1: value = ~std::uint64_t{0}; break;  // extent overflow bait
      case 2: value &= 0xffff; break;
      default: break;                            // full-range garbage
    }
    for (std::size_t b = 0; b < width; ++b) {
      mutated[off + b] = static_cast<std::uint8_t>(value >> (8 * b));
    }
    resign(mutated);
    if (!decode_must_reject_or_roundtrip(mutated)) ++accepted;
  }
  // A mutation may legitimately be accepted (e.g. rewriting the step index
  // or a field with its original value), but structural garbage dominates:
  // most trials must be structured refusals.
  EXPECT_LT(accepted, 400 / 2);
}

TEST(ServeCheckpointFuzz, TrailingGarbageIsRejectedEvenWhenResigned) {
  const auto blob = valid_blob();
  std::mt19937_64 gen(0xa11ce);
  for (int trial = 0; trial < 50; ++trial) {
    auto mutated = blob;
    const std::size_t extra = 1 + gen() % 32;
    for (std::size_t i = 0; i < extra; ++i) {
      mutated.push_back(static_cast<std::uint8_t>(gen()));
    }
    EXPECT_TRUE(decode_must_reject_or_roundtrip(mutated));
    auto resigned = mutated;
    resign(resigned);
    // Even with a valid checksum over the padded blob the declared extents
    // no longer reach the end: trailing garbage is a structural refusal.
    EXPECT_TRUE(decode_must_reject_or_roundtrip(resigned));
  }
}

TEST(ServeCheckpointFuzz, EmptyAndTinyBlobsAreRejected) {
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                              std::size_t{63}}) {
    const std::vector<std::uint8_t> tiny(n, 0x45);
    EXPECT_TRUE(decode_must_reject_or_roundtrip(tiny)) << "size " << n;
    EXPECT_THROW((void)serve::checkpoint_version(tiny), serve::CheckpointError);
  }
}

// The spill store moves ESCP blobs to disk and back; a crashed writer or a
// bit-rotted disk hands the decoder whatever survived. Run the same
// byte-mutation harness through a file-backed SpillStore round trip: any
// corruption of the spilled file must surface as a structured
// CheckpointError after take(), never a crash -- and the decoder must not
// care that the bytes passed through a file.
TEST(ServeCheckpointFuzz, SpillFileMutationsRejectOrRoundTrip) {
  const auto blob = valid_blob();
  char dir_template[] = "/tmp/esthera_spill_fuzz_XXXXXX";
  ASSERT_NE(::mkdtemp(dir_template), nullptr);
  serve::SpillStore::Config cfg;
  cfg.dir = dir_template;
  serve::SpillStore store(cfg);
  std::mt19937_64 gen(0x5b111);
  for (int trial = 0; trial < 150; ++trial) {
    ASSERT_TRUE(store.put(1, blob));
    const std::string path = store.path_for(1);
    // Corrupt the file in place: flip bytes, truncate, or append garbage.
    switch (gen() % 3) {
      case 0: {  // byte flips
        std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
        ASSERT_TRUE(f.good());
        const std::size_t pos = gen() % blob.size();
        f.seekg(static_cast<std::streamoff>(pos));
        char byte = 0;
        f.read(&byte, 1);
        byte = static_cast<char>(byte ^ (1u << (gen() % 8)));
        f.seekp(static_cast<std::streamoff>(pos));
        f.write(&byte, 1);
        break;
      }
      case 1: {  // truncation (store's size bookkeeping now disagrees)
        const std::size_t keep = gen() % blob.size();
        std::vector<char> head(keep);
        {
          std::ifstream in(path, std::ios::binary);
          in.read(head.data(), static_cast<std::streamsize>(keep));
        }
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(head.data(), static_cast<std::streamsize>(keep));
        break;
      }
      default: {  // trailing garbage (take() reads only the recorded size)
        std::ofstream f(path, std::ios::binary | std::ios::app);
        for (std::size_t i = 0, n = 1 + gen() % 32; i < n; ++i) {
          const char c = static_cast<char>(gen());
          f.write(&c, 1);
        }
        break;
      }
    }
    try {
      const auto read_back = store.take(1);
      // take() succeeded: the decoder is the last line of defense.
      if (read_back == blob) {
        EXPECT_FALSE(decode_must_reject_or_roundtrip(read_back));
      } else {
        EXPECT_TRUE(decode_must_reject_or_roundtrip(read_back));
      }
    } catch (const serve::CheckpointError&) {
      // Structured refusal from the store itself (short read): the id and
      // file stay put for postmortem; clean up for the next trial.
      store.erase(1);
    }
  }
  store.erase(1);
  ::rmdir(dir_template);
}

}  // namespace
