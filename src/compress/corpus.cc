#include "src/compress/corpus.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <string>
#include <string_view>

#include "src/common/rng.h"

namespace tierscape {
namespace {

class PageBuilder {
 public:
  explicit PageBuilder(std::span<std::byte> out) : out_(out) {}

  bool full() const { return pos_ >= out_.size(); }

  void Append(std::string_view text) {
    const std::size_t n = std::min(text.size(), out_.size() - pos_);
    std::memcpy(out_.data() + pos_, text.data(), n);
    pos_ += n;
  }

 private:
  std::span<std::byte> out_;
  std::size_t pos_ = 0;
};

// `nci`-like: fixed-schema records over a tiny symbol alphabet with heavily
// repeated field values — compresses to ~10-20% like the real nci data set.
void FillNci(Rng& rng, std::span<std::byte> out) {
  static constexpr char kAtoms[] = {'C', 'N', 'O', 'H', 'S', 'P'};
  static constexpr std::string_view kBonds[] = {"1", "2", "ar"};
  PageBuilder page(out);
  while (!page.full()) {
    page.Append("@<MOL> ");
    const int n_atoms = 4 + static_cast<int>(rng.NextBelow(4));
    for (int i = 0; i < n_atoms && !page.full(); ++i) {
      // "<atom> <x>.<xf>00 <y>.<yf>00 0.0000\n": coordinates quantized to a
      // coarse grid, so few distinct substrings. Draws run from the last
      // field to the first; the golden corpus digest in
      // tests/compress_test.cc pins that order.
      char line[] = "? ?.?00 ?.?00 0.0000\n";
      line[10] = rng.NextBelow(2) == 0 ? '0' : '5';
      line[8] = static_cast<char>('0' + rng.NextBelow(4));
      line[4] = rng.NextBelow(2) == 0 ? '0' : '5';
      line[2] = static_cast<char>('0' + rng.NextBelow(4));
      line[0] = kAtoms[rng.NextBelow(6)];
      page.Append(std::string_view(line, sizeof(line) - 1));
    }
    page.Append("BOND ");
    page.Append(kBonds[rng.NextBelow(3)]);
    page.Append("\n@</MOL>\n");
  }
}

// `dickens`-like: word stream from a zipf-weighted vocabulary with simple
// sentence structure — compresses to ~35-50% with entropy-coded LZ, ~60-70%
// with byte-aligned LZ, matching English prose behaviour.
void FillDickens(Rng& rng, std::span<std::byte> out) {
  static constexpr std::string_view kWords[] = {
      "the",     "of",      "and",     "a",        "to",       "in",      "he",
      "was",     "that",    "it",      "his",      "her",      "with",    "as",
      "had",     "for",     "at",      "not",      "on",       "but",     "be",
      "which",   "him",     "said",    "from",     "she",      "this",    "all",
      "were",    "by",      "have",    "my",       "mr",       "little",  "so",
      "you",     "one",     "there",   "been",     "no",       "when",    "out",
      "what",    "old",     "up",      "would",    "time",     "very",    "more",
      "could",   "into",    "now",     "some",     "man",      "who",     "them",
      "they",    "like",    "upon",    "will",     "then",     "its",     "about",
      "me",      "door",    "hand",    "night",    "before",   "house",   "good",
      "down",    "come",    "again",   "face",     "over",     "such",    "might",
      "looking", "through", "nothing", "away",     "day",      "never",   "first",
      "dear",    "made",    "being",   "himself",  "gentleman", "returned", "great",
      "young",   "quite",   "long",    "looked",   "head",     "way",      "know",
      "well",    "much",    "where",   "after",    "round",    "eyes",     "any"};
  constexpr std::size_t kVocab = sizeof(kWords) / sizeof(kWords[0]);
  // Words and separators sit in fixed 16-byte slots, so an append away from
  // the page end is one fixed-size copy (a couple of moves, no libc call);
  // the slot's padding lands past the text, where the next append overwrites
  // it. Only the last slot before the page end is truncated to fit.
  constexpr std::size_t kSlot = 16;
  struct Slot {
    char text[kSlot];
    std::size_t size;
  };
  static constexpr auto kSlots = [] {
    std::array<Slot, kVocab> slots{};
    for (std::size_t i = 0; i < kVocab; ++i) {
      std::copy(kWords[i].begin(), kWords[i].end(), slots[i].text);
      slots[i].size = kWords[i].size();
    }
    return slots;
  }();
  static constexpr Slot kSpace = {" ", 1};
  static constexpr Slot kStop = {". ", 2};
  std::byte* const page = out.data();
  std::size_t pos = 0;
  auto append = [&](const Slot& slot) {
    if (out.size() - pos >= kSlot) {
      std::memcpy(page + pos, slot.text, kSlot);
      pos += slot.size;
    } else {
      const std::size_t n = std::min(slot.size, out.size() - pos);
      std::memcpy(page + pos, slot.text, n);
      pos += n;
    }
  };
  int words_in_sentence = 0;
  while (pos < out.size()) {
    // Zipf-ish rank selection: square a uniform to bias toward low ranks.
    const double u = rng.NextDouble();
    const auto rank = static_cast<std::size_t>(u * u * static_cast<double>(kVocab));
    append(kSlots[rank < kVocab ? rank : kVocab - 1]);
    ++words_in_sentence;
    if (words_in_sentence > 6 && rng.NextBelow(5) == 0) {
      append(kStop);
      words_in_sentence = 0;
    } else {
      append(kSpace);
    }
  }
}

// Binary records: 32-byte structs with constant magic, small-domain enums,
// monotonic ids, and one random payload word — typical in-memory object data.
void FillBinary(Rng& rng, std::span<std::byte> out) {
  PageBuilder page(out);
  std::uint64_t id = rng.Next() & 0xffffff;
  while (!page.full()) {
    struct Record {
      std::uint32_t magic;
      std::uint32_t type;
      std::uint64_t id;
      std::uint64_t payload;
      std::uint64_t flags;
    } rec;
    rec.magic = 0xfeedc0de;
    rec.type = static_cast<std::uint32_t>(rng.NextBelow(4));
    rec.id = id++;
    rec.payload = rng.Next();
    rec.flags = rec.type == 0 ? 0 : 0x1;
    page.Append(std::string_view(reinterpret_cast<const char*>(&rec), sizeof(rec)));
  }
}

void FillRandom(Rng& rng, std::span<std::byte> out) {
  std::size_t i = 0;
  while (i + 8 <= out.size()) {
    const std::uint64_t v = rng.Next();
    std::memcpy(out.data() + i, &v, 8);
    i += 8;
  }
  while (i < out.size()) {
    out[i] = static_cast<std::byte>(rng.Next() & 0xff);
    ++i;
  }
}

}  // namespace

std::string_view CorpusProfileName(CorpusProfile profile) {
  switch (profile) {
    case CorpusProfile::kNci:
      return "nci";
    case CorpusProfile::kDickens:
      return "dickens";
    case CorpusProfile::kBinary:
      return "binary";
    case CorpusProfile::kRandom:
      return "random";
    case CorpusProfile::kZero:
      return "zero";
  }
  return "?";
}

StatusOr<CorpusProfile> CorpusProfileFromName(std::string_view name) {
  for (int i = 0; i < kCorpusProfileCount; ++i) {
    const auto profile = static_cast<CorpusProfile>(i);
    if (CorpusProfileName(profile) == name) {
      return profile;
    }
  }
  return NotFound("unknown corpus profile: " + std::string(name));
}

void FillPage(CorpusProfile profile, std::uint64_t seed, std::span<std::byte> out) {
  Rng rng(SplitMix64(seed ^ (static_cast<std::uint64_t>(profile) << 56)));
  switch (profile) {
    case CorpusProfile::kNci:
      FillNci(rng, out);
      return;
    case CorpusProfile::kDickens:
      FillDickens(rng, out);
      return;
    case CorpusProfile::kBinary:
      FillBinary(rng, out);
      return;
    case CorpusProfile::kRandom:
      FillRandom(rng, out);
      return;
    case CorpusProfile::kZero:
      std::memset(out.data(), 0, out.size());
      return;
  }
}

std::uint64_t PageChecksum(std::span<const std::byte> data) {
  // Each step is a bijection in the word (odd multiply, xor, rotate, odd
  // multiply) and in the running state, so inputs of one length that differ
  // in a single word always differ in the result. SplitMix64 then avalanches.
  auto step = [](std::uint64_t h, std::uint64_t word) {
    return std::rotl(h ^ (word * 0x9e3779b97f4a7c15ULL), 31) * 0xbf58476d1ce4e5b9ULL;
  };
  std::uint64_t h = 0xcbf29ce484222325ULL ^ data.size();
  std::size_t i = 0;
  for (; i + 8 <= data.size(); i += 8) {
    std::uint64_t word;
    std::memcpy(&word, data.data() + i, sizeof(word));
    h = step(h, word);
  }
  if (i < data.size()) {
    std::uint64_t word = 0;
    std::memcpy(&word, data.data() + i, data.size() - i);
    h = step(h, word);
  }
  return SplitMix64(h);
}

}  // namespace tierscape
