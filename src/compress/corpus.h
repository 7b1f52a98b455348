// Deterministic synthetic page-content generators.
//
// The paper characterizes compressed tiers with two Silesia corpus data sets:
// `nci` (a chemical database — highly compressible [22]) and `dickens`
// (English prose — moderately compressible). Those files are not available
// offline, so we synthesize content with the same compressibility character:
// page contents are a pure function of (profile, seed), so any page can be
// regenerated at any time without storing it — the trick that keeps the
// simulation's real RSS small (DESIGN.md §5).
#ifndef SRC_COMPRESS_CORPUS_H_
#define SRC_COMPRESS_CORPUS_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

#include "src/common/status.h"

namespace tierscape {

enum class CorpusProfile {
  kNci = 0,      // structured records, tiny alphabet — highly compressible
  kDickens,      // natural-language-like text — moderately compressible
  kBinary,       // struct-of-records with constant and random fields
  kRandom,       // full-entropy bytes — incompressible (zswap rejects these)
  kZero,         // zero-filled — the RLE extreme
};

inline constexpr int kCorpusProfileCount = 5;

std::string_view CorpusProfileName(CorpusProfile profile);
StatusOr<CorpusProfile> CorpusProfileFromName(std::string_view name);

// Fills `out` with deterministic content for (profile, seed). Two calls with
// equal arguments produce identical bytes.
void FillPage(CorpusProfile profile, std::uint64_t seed, std::span<std::byte> out);

// 64-bit content fingerprint for round-trip verification without storing the
// original bytes, hashed eight bytes at a time. Values are only compared
// within one process (the engine's round-trip checks, which also carry them
// through CompressionCache entries) and never reach an export, digest or
// figure, so the function may change without moving any output.
std::uint64_t PageChecksum(std::span<const std::byte> data);

}  // namespace tierscape

#endif  // SRC_COMPRESS_CORPUS_H_
