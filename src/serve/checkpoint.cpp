#include "serve/checkpoint.hpp"

#include <bit>
#include <cstring>
#include <limits>
#include <string>

namespace esthera::serve {

namespace {

constexpr std::uint8_t kMagic[4] = {'E', 'S', 'C', 'P'};
constexpr std::size_t kFixedHeaderBytes = 4 + 4 + 4 + 4 + 6 * 8;
constexpr std::size_t kChecksumBytes = 8;

constexpr std::uint32_t kCheckpointV1 = 1;
constexpr bool kLittleEndian = std::endian::native == std::endian::little;

/// The version-1 checksum: FNV-1a 64 over a byte range, one byte at a
/// time. Only read-side now (see the layout comment in checkpoint.hpp).
std::uint64_t fnv1a64(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t load_le64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  if constexpr (kLittleEndian) {
    std::memcpy(&v, p, sizeof(v));
  } else {
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  }
  return v;
}

/// SplitMix64's finalizer: a bijection of u64 with full avalanche.
constexpr std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Append-only little-endian byte writer.
class Writer {
 public:
  explicit Writer(std::vector<std::uint8_t>& out) : out_(out) {}

  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    out_.insert(out_.end(), b, b + n);
  }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u32s(std::span<const std::uint32_t> words) {
    if constexpr (kLittleEndian) {
      bytes(words.data(), words.size_bytes());
    } else {
      for (const std::uint32_t word : words) u32(word);
    }
  }

 private:
  std::vector<std::uint8_t>& out_;
};

/// Bounds-checked little-endian reader; every overrun is a CheckpointError
/// naming the field it was reading, so truncated blobs fail loudly.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> blob) : blob_(blob) {}

  void bytes(void* p, std::size_t n, const char* field) {
    need(n, field);
    if (n == 0) return;  // p may be null (an empty array)
    std::memcpy(p, blob_.data() + pos_, n);
    pos_ += n;
  }
  [[nodiscard]] std::uint32_t u32(const char* field) {
    need(4, field);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(blob_[pos_ + i]) << (8 * i);
    pos_ += 4;
    return v;
  }
  [[nodiscard]] std::uint64_t u64(const char* field) {
    need(8, field);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(blob_[pos_ + i]) << (8 * i);
    pos_ += 8;
    return v;
  }
  void u32s(std::span<std::uint32_t> words, const char* field) {
    if constexpr (kLittleEndian) {
      bytes(words.data(), words.size_bytes(), field);
    } else {
      for (std::uint32_t& word : words) word = u32(field);
    }
  }
  [[nodiscard]] std::size_t position() const { return pos_; }
  [[nodiscard]] std::size_t remaining() const { return blob_.size() - pos_; }

 private:
  void need(std::size_t n, const char* field) {
    if (blob_.size() - pos_ < n) {
      throw CheckpointError("checkpoint truncated while reading " +
                            std::string(field) + " (need " + std::to_string(n) +
                            " bytes at offset " + std::to_string(pos_) +
                            ", blob has " + std::to_string(blob_.size()) + ")");
    }
  }

  std::span<const std::uint8_t> blob_;
  std::size_t pos_ = 0;
};

std::uint32_t generator_code(prng::Generator g) {
  return g == prng::Generator::kMtgp ? 0u : 1u;
}

prng::Generator generator_from_code(std::uint32_t code) {
  switch (code) {
    case 0u:
      return prng::Generator::kMtgp;
    case 1u:
      return prng::Generator::kPhilox;
    default:
      throw CheckpointError("checkpoint carries unknown generator code " +
                            std::to_string(code));
  }
}

}  // namespace

std::uint64_t checkpoint_checksum(std::span<const std::uint8_t> bytes) {
  // Four independent multiply chains keep the multiplier busy; the rotate
  // feeds each product's well-mixed high bits back into the low bits the
  // next multiply spreads upward.
  constexpr std::uint64_t kOdd = 0x9e3779b97f4a7c15ull;
  const auto lane_step = [](std::uint64_t h, std::uint64_t word) {
    return std::rotl((h ^ word) * kOdd, 31);
  };
  std::uint64_t lanes[4] = {0x243f6a8885a308d3ull, 0x13198a2e03707344ull,
                            0xa4093822299f31d0ull, 0x082efa98ec4e6c89ull};
  const std::uint8_t* p = bytes.data();
  const std::size_t n = bytes.size();
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    for (std::size_t l = 0; l < 4; ++l) lanes[l] = lane_step(lanes[l], load_le64(p + i + 8 * l));
  }
  for (std::size_t l = 0; i + 8 <= n; i += 8, ++l) lanes[l] = lane_step(lanes[l], load_le64(p + i));
  std::uint64_t tail = 0;
  for (std::size_t b = 0; i + b < n; ++b) tail |= static_cast<std::uint64_t>(p[i + b]) << (8 * b);
  std::uint64_t h = mix64(mix64(n) ^ tail);
  for (const std::uint64_t lane : lanes) h = mix64(h ^ lane);
  return h;
}

template <typename T>
std::vector<std::uint8_t> encode_checkpoint(const core::FilterState<T>& state) {
  std::vector<std::uint8_t> out;
  const std::size_t scalars = state.state.size() + state.log_weights.size() +
                              state.estimate.size() + 1;
  out.reserve(kFixedHeaderBytes + state.rng.mt_words.size() * 4 +
              scalars * sizeof(T) + kChecksumBytes);
  Writer w(out);
  w.bytes(kMagic, sizeof(kMagic));
  w.u32(kCheckpointVersion);
  w.u32(static_cast<std::uint32_t>(sizeof(T)));
  w.u32(generator_code(state.rng.generator));
  w.u64(state.particles_per_filter);
  w.u64(state.num_filters);
  w.u64(state.state_dim);
  w.u64(state.step);
  w.u64(state.rng.round);
  w.u64(state.rng.mt_words.size());
  w.u32s(state.rng.mt_words);
  w.bytes(state.state.data(), state.state.size() * sizeof(T));
  w.bytes(state.log_weights.data(), state.log_weights.size() * sizeof(T));
  w.bytes(state.estimate.data(), state.estimate.size() * sizeof(T));
  w.bytes(&state.estimate_log_weight, sizeof(T));
  w.u64(checkpoint_checksum(out));
  return out;
}

std::uint32_t checkpoint_version(std::span<const std::uint8_t> blob) {
  Reader r(blob);
  std::uint8_t magic[4];
  r.bytes(magic, sizeof(magic), "magic");
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    throw CheckpointError("not a checkpoint blob (bad magic)");
  }
  return r.u32("version");
}

template <typename T>
core::FilterState<T> decode_checkpoint(std::span<const std::uint8_t> blob) {
  // Checksum first: a blob that fails it is corrupt, and any field-level
  // error message would be describing garbage.
  if (blob.size() < kFixedHeaderBytes + kChecksumBytes) {
    throw CheckpointError("checkpoint truncated: " + std::to_string(blob.size()) +
                          " bytes is below the " +
                          std::to_string(kFixedHeaderBytes + kChecksumBytes) +
                          "-byte minimum");
  }
  const std::uint32_t version = checkpoint_version(blob);
  if (version != kCheckpointVersion && version != kCheckpointV1) {
    throw CheckpointError("checkpoint format version " + std::to_string(version) +
                          " is not supported (this build reads versions " +
                          std::to_string(kCheckpointV1) + " and " +
                          std::to_string(kCheckpointVersion) + ")");
  }
  const std::size_t payload = blob.size() - kChecksumBytes;
  std::uint64_t stored = 0;
  {
    Reader tail(blob.subspan(payload));
    stored = tail.u64("checksum");
  }
  const std::uint64_t computed = version == kCheckpointV1
                                     ? fnv1a64(blob.first(payload))
                                     : checkpoint_checksum(blob.first(payload));
  if (stored != computed) {
    throw CheckpointError("checkpoint checksum mismatch (blob is corrupt)");
  }

  Reader r(blob.first(payload));
  std::uint8_t magic[4];
  r.bytes(magic, sizeof(magic), "magic");
  (void)r.u32("version");
  const std::uint32_t scalar_bytes = r.u32("scalar width");
  if (scalar_bytes != sizeof(T)) {
    throw CheckpointError("checkpoint scalar width " +
                          std::to_string(scalar_bytes) +
                          " does not match requested scalar width " +
                          std::to_string(sizeof(T)));
  }
  core::FilterState<T> s;
  s.rng.generator = generator_from_code(r.u32("generator"));
  s.particles_per_filter = r.u64("particles_per_filter");
  s.num_filters = r.u64("num_filters");
  s.state_dim = r.u64("state_dim");
  s.step = r.u64("step");
  s.rng.round = r.u64("rng round");
  s.rng.groups = s.num_filters;
  const std::uint64_t words = r.u64("rng word count");
  // Extent sanity before any allocation: a corrupt length field must not
  // turn into a huge allocation or a misleading later error. Compare with
  // division (never multiplication) -- these fields are corruption-
  // controlled u64s, so `words * 4` etc. can wrap and sail past the guard.
  if (words > r.remaining() / 4) {
    throw CheckpointError("checkpoint truncated: rng words extent overruns blob");
  }
  // An MTGP stream holds one MT state (624 words + index) per sub-filter,
  // a Philox stream none; anything else could never be restored.
  constexpr std::uint64_t kWordsPerGroup = prng::Mt19937::kStateWords + 1;
  if (s.rng.generator == prng::Generator::kMtgp
          ? words % kWordsPerGroup != 0 || words / kWordsPerGroup != s.num_filters
          : words != 0) {
    throw CheckpointError("checkpoint corrupt: " + std::to_string(words) +
                          " rng words do not fit its generator core and " +
                          std::to_string(s.num_filters) + " sub-filters");
  }
  s.rng.mt_words.resize(static_cast<std::size_t>(words));
  r.u32s(s.rng.mt_words, "rng words");
  if (r.remaining() % sizeof(T) != 0) {
    throw CheckpointError(
        "checkpoint truncated or corrupt: particle payload of " +
        std::to_string(r.remaining()) + " bytes is not a multiple of the " +
        std::to_string(sizeof(T)) + "-byte scalar width");
  }
  const std::uint64_t avail = r.remaining() / sizeof(T);
  const auto mul_overflows = [](std::uint64_t a, std::uint64_t b) {
    return a != 0 && b > std::numeric_limits<std::uint64_t>::max() / a;
  };
  std::uint64_t n_total = 0;
  std::uint64_t n_state = 0;
  if (mul_overflows(s.particles_per_filter, s.num_filters) ||
      (n_total = s.particles_per_filter * s.num_filters) > avail ||
      mul_overflows(n_total, s.state_dim) ||
      (n_state = n_total * s.state_dim) > avail || s.state_dim > avail) {
    throw CheckpointError(
        "checkpoint corrupt: header extents exceed the particle payload (" +
        std::to_string(r.remaining()) + " bytes)");
  }
  // Each term is <= avail <= blob size, so the sum cannot wrap u64.
  const std::uint64_t scalars = n_state + n_total + s.state_dim + 1;
  if (scalars != avail) {
    throw CheckpointError(
        "checkpoint truncated or corrupt: particle payload is " +
        std::to_string(r.remaining()) + " bytes, header declares " +
        std::to_string(scalars) + " scalars (" +
        std::to_string(scalars * sizeof(T)) + " bytes)");
  }
  s.state.resize(static_cast<std::size_t>(n_total * s.state_dim));
  r.bytes(s.state.data(), s.state.size() * sizeof(T), "particle states");
  s.log_weights.resize(static_cast<std::size_t>(n_total));
  r.bytes(s.log_weights.data(), s.log_weights.size() * sizeof(T), "log-weights");
  s.estimate.resize(static_cast<std::size_t>(s.state_dim));
  r.bytes(s.estimate.data(), s.estimate.size() * sizeof(T), "estimate");
  r.bytes(&s.estimate_log_weight, sizeof(T), "estimate log-weight");
  return s;
}

template std::vector<std::uint8_t> encode_checkpoint<float>(
    const core::FilterState<float>&);
template std::vector<std::uint8_t> encode_checkpoint<double>(
    const core::FilterState<double>&);
template core::FilterState<float> decode_checkpoint<float>(
    std::span<const std::uint8_t>);
template core::FilterState<double> decode_checkpoint<double>(
    std::span<const std::uint8_t>);

}  // namespace esthera::serve
