// Byte-identity guard for Staccato construction and k-MAP derivation.
//
// Every stored artifact downstream of construction — the Staccato graph
// blob, the per-chunk string rows, the k-MAP rows — is a pure function of
// ApproximateSfa and KBestStrings. This test pins CRC-32 digests of both
// over a sweep of generated OCR corpora (CA/LT/DB × 3 seeds) and the
// (m, k) grid, plus tie-heavy chain SFAs, so any change to either kernel
// that moves a single output byte fails here. The last test races the
// kernels' scratch state: 4 threads must reproduce the 1-thread bytes.
//
// The digests depend on the generated corpora, which draw from
// libstdc++'s <random> distributions (std::normal_distribution and
// friends are implementation-defined). Every CI compiler builds against
// libstdc++; a different standard library would need new digests.
#include <gtest/gtest.h>

#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "inference/kbest.h"
#include "ocr/corpus.h"
#include "sfa/sfa.h"
#include "staccato/chunking.h"
#include "util/crc32.h"
#include "util/parallel.h"

namespace staccato {
namespace {

constexpr size_t kMs[] = {1, 5, 10, 40};
constexpr size_t kKs[] = {1, 5, 25, 50};

// Serialized ScoredString lists: length-prefixed bytes plus the exact
// IEEE-754 bits of each probability.
void AppendScored(const std::vector<ScoredString>& list, std::string* out) {
  uint64_t n = list.size();
  out->append(reinterpret_cast<const char*>(&n), sizeof(n));
  for (const ScoredString& s : list) {
    uint64_t len = s.str.size();
    out->append(reinterpret_cast<const char*>(&len), sizeof(len));
    out->append(s.str);
    out->append(reinterpret_cast<const char*>(&s.prob), sizeof(s.prob));
  }
}

uint32_t ApproxDigest(const std::vector<Sfa>& sfas, size_t m, size_t k) {
  std::string bytes;
  StaccatoParams params;
  params.m = m;
  params.k = k;
  for (const Sfa& sfa : sfas) {
    auto approx = ApproximateSfa(sfa, params);
    EXPECT_TRUE(approx.ok()) << approx.status().ToString();
    if (approx.ok()) bytes += approx->Serialize();
  }
  return util::Crc32(bytes);
}

uint32_t KBestDigest(const std::vector<Sfa>& sfas, size_t k) {
  std::string bytes;
  for (const Sfa& sfa : sfas) AppendScored(KBestStrings(sfa, k), &bytes);
  return util::Crc32(bytes);
}

std::vector<Sfa> CorpusSfas(DatasetKind kind, uint64_t seed) {
  CorpusSpec spec;
  spec.kind = kind;
  spec.num_pages = 1;
  spec.lines_per_page = 3;
  spec.max_line_chars = 40;
  spec.seed = seed;
  auto ds = GenerateOcrDataset(spec, OcrNoiseModel{});
  EXPECT_TRUE(ds.ok());
  return ds.ok() ? ds->sfas : std::vector<Sfa>{};
}

// Uniform chain SFAs: every string of a given length ties exactly, so the
// per-node string tie-break decides every k-th place.
std::vector<Sfa> ChainSfas() {
  std::vector<Sfa> out;
  for (auto [len, alts] : {std::pair<size_t, size_t>{3, 4}, {6, 3}, {9, 2}}) {
    auto sfa = MakeChainSfa(len, alts);
    EXPECT_TRUE(sfa.ok());
    if (sfa.ok()) out.push_back(*sfa);
  }
  return out;
}

struct Pinned {
  const char* name;
  DatasetKind kind;
  uint64_t seed;
  uint32_t approx[4][4];  // [index into kMs][index into kKs]
  uint32_t kbest[4];      // [index into kKs]
};

// Digests of the reference implementation. Regenerate only for an
// intended output change; the failure message prints the new row.
const Pinned kPinned[] = {
    {"CA-11", DatasetKind::kCongressActs, 11,
     {{0xad886c5cu, 0x5d056515u, 0xc053d591u, 0x399a843au},
      {0x32811849u, 0x339aeae6u, 0x573d3337u, 0xc9431f52u},
      {0x8fecae89u, 0xe604a861u, 0x6243e862u, 0x5d04db75u},
      {0x3866cf48u, 0xcb5feea9u, 0x126a8eb9u, 0x36828e67u}},
     {0xbffd7811u, 0xa7991273u, 0x1ab5180du, 0x5a720c86u}},
    {"CA-12", DatasetKind::kCongressActs, 12,
     {{0x882db606u, 0x49e1f5d1u, 0xf89b18d9u, 0x49057d35u},
      {0x77561752u, 0x63ca42bau, 0x57bbb871u, 0x8667a9d4u},
      {0x8c64fa92u, 0x7b6a9e43u, 0xdaccb3eau, 0x5f81cb0cu},
      {0x643093f9u, 0x58d5db3bu, 0xebf7ac86u, 0x7d2bc12cu}},
     {0x58e9c2e4u, 0x644f2cd9u, 0x67c243eau, 0xe260b378u}},
    {"CA-13", DatasetKind::kCongressActs, 13,
     {{0x3281cca1u, 0x45cbc053u, 0x74393e2bu, 0xf72eaf2bu},
      {0x81ec583bu, 0x06ffffa1u, 0x4cadc14eu, 0xbf86bae7u},
      {0x420d2b34u, 0xcacb17f3u, 0xa4e4a699u, 0x8416bd0fu},
      {0xf6dc500au, 0xc5441184u, 0xe009667eu, 0xd47f1e4eu}},
     {0xae0e3eccu, 0x311e3355u, 0xcea0fb14u, 0x067c31e1u}},
    {"LT-11", DatasetKind::kLiterature, 11,
     {{0x1f9c3015u, 0x8e9f751du, 0x63df83fbu, 0x62bb37d1u},
      {0x44d0ac4fu, 0xab53d9a8u, 0xbd1bf5c2u, 0x79b97b97u},
      {0x7151206eu, 0x44e9641bu, 0x0446677du, 0xa13691d0u},
      {0xc4ddae7au, 0x2beac5f0u, 0x97dc6d8au, 0x3933d39cu}},
     {0xb4881172u, 0x928db0eau, 0x16896396u, 0xc9355986u}},
    {"LT-12", DatasetKind::kLiterature, 12,
     {{0x5ae5a9a6u, 0x2178daf6u, 0x2081bc75u, 0xb18c416bu},
      {0xca003449u, 0x8e73f2a4u, 0x9042b34au, 0xdc2d19a8u},
      {0x43c0fda7u, 0x1452e9f4u, 0xd9f453dcu, 0x01ad779cu},
      {0xfd1da3e8u, 0x3f6786b2u, 0x84efb6f6u, 0x9cac8062u}},
     {0x718b7dd9u, 0x3634f7b5u, 0x038b0239u, 0x4a34a7c7u}},
    {"LT-13", DatasetKind::kLiterature, 13,
     {{0x7ac85549u, 0x295ead4eu, 0x6067692bu, 0x68b71ff8u},
      {0xad628e6fu, 0x05b7961bu, 0x0310b113u, 0xf832c6b5u},
      {0x0fff2a97u, 0x3ee307b0u, 0x7588654eu, 0x08b8db8du},
      {0xa93fc896u, 0xf885868au, 0xebdc35e3u, 0x28a59f8cu}},
     {0x430208e5u, 0x644ddaaau, 0x5581d2c7u, 0x9858a61cu}},
    {"DB-11", DatasetKind::kDbPapers, 11,
     {{0x74acbeeeu, 0xbbf66c54u, 0x5024c21au, 0x48ed118du},
      {0x9c5d8775u, 0x46bcb744u, 0x4f988b36u, 0xed910959u},
      {0xe3c128d6u, 0x35b0d280u, 0x0ca85ab2u, 0x52ae967du},
      {0x1dfb3752u, 0xeb63d93du, 0x4b1c5f0au, 0x90d09fe3u}},
     {0x1daed0e8u, 0x1246020fu, 0x2a062ec7u, 0xbbb9d3ebu}},
    {"DB-12", DatasetKind::kDbPapers, 12,
     {{0x09068bfcu, 0x73460df2u, 0x74f15d1bu, 0x8d6cc294u},
      {0xafe85577u, 0x262d00c6u, 0xf3c45cd2u, 0xc8c481c7u},
      {0x7d66b41eu, 0x15540202u, 0x23680344u, 0x36a55d69u},
      {0x191cad8fu, 0x3229e992u, 0xcff51a34u, 0x29e381c9u}},
     {0xde66aba7u, 0xdfe9c36bu, 0x12a0edafu, 0xb66486b8u}},
    {"DB-13", DatasetKind::kDbPapers, 13,
     {{0x06687c83u, 0x9bbc5834u, 0xf59a1033u, 0xb9e096c8u},
      {0x51a3b5aau, 0xf0ed863du, 0xc0fa1476u, 0x56a4d051u},
      {0xb208a2fdu, 0xcb536c3fu, 0x6c6209c7u, 0xbd00fac5u},
      {0xbd020258u, 0x1a8b4037u, 0x3b56b0b3u, 0x68877b09u}},
     {0x438a8823u, 0x126f7281u, 0xd01495b7u, 0x22319e5au}},
};

// The chain row has no corpus; kind and seed are unused.
const Pinned kPinnedChains =
    {"chains", DatasetKind::kCongressActs, 0,
     {{0x4d01bd25u, 0x3b9b8601u, 0x09b0c6c7u, 0x849639e5u},
      {0x10583089u, 0xc5095c38u, 0xec2fcc20u, 0xf74da897u},
      {0x618d2ce1u, 0x499ad475u, 0x499ad475u, 0x499ad475u},
      {0x618d2ce1u, 0x499ad475u, 0x499ad475u, 0x499ad475u}},
     {0x84734cdfu, 0x0c5f8b7au, 0x9bd96731u, 0x3f51f4d9u}};

std::string FormatRow(const Pinned& p, const std::vector<Sfa>& sfas) {
  static const char* const kKindEnum[] = {"kCongressActs", "kLiterature",
                                          "kDbPapers"};
  std::string row = std::string("{\"") + p.name + "\", DatasetKind::" +
                    kKindEnum[static_cast<int>(p.kind)] + ", " +
                    std::to_string(p.seed) + ", {";
  for (size_t mi = 0; mi < 4; ++mi) {
    row += mi ? ", {" : "{";
    for (size_t ki = 0; ki < 4; ++ki) {
      char buf[16];
      std::snprintf(buf, sizeof(buf), "%s0x%08xu", ki ? ", " : "",
                    ApproxDigest(sfas, kMs[mi], kKs[ki]));
      row += buf;
    }
    row += "}";
  }
  row += "}, {";
  for (size_t ki = 0; ki < 4; ++ki) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%s0x%08xu", ki ? ", " : "",
                  KBestDigest(sfas, kKs[ki]));
    row += buf;
  }
  return row + "}}";
}

void CheckRow(const Pinned& p, const std::vector<Sfa>& sfas) {
  ASSERT_FALSE(sfas.empty()) << p.name;
  bool all_match = true;
  for (size_t mi = 0; mi < 4; ++mi) {
    for (size_t ki = 0; ki < 4; ++ki) {
      uint32_t got = ApproxDigest(sfas, kMs[mi], kKs[ki]);
      EXPECT_EQ(got, p.approx[mi][ki])
          << p.name << " ApproximateSfa m=" << kMs[mi] << " k=" << kKs[ki];
      all_match &= got == p.approx[mi][ki];
    }
  }
  for (size_t ki = 0; ki < 4; ++ki) {
    uint32_t got = KBestDigest(sfas, kKs[ki]);
    EXPECT_EQ(got, p.kbest[ki]) << p.name << " KBestStrings k=" << kKs[ki];
    all_match &= got == p.kbest[ki];
  }
  if (!all_match) ADD_FAILURE() << "actual row: " << FormatRow(p, sfas);
}

TEST(ConstructionIdentityTest, CorpusDigestsMatchReference) {
  ASSERT_EQ(std::size(kPinned), 9u);
  for (const Pinned& p : kPinned) CheckRow(p, CorpusSfas(p.kind, p.seed));
}

TEST(ConstructionIdentityTest, TieHeavyChainDigestsMatchReference) {
  CheckRow(kPinnedChains, ChainSfas());
}

// The kernels keep per-call scratch; concurrent construction over the
// shared pool (Load, ShardedDb) must not share any of it.
TEST(ConstructionIdentityTest, ParallelConstructionMatchesSerial) {
  std::vector<Sfa> sfas = CorpusSfas(DatasetKind::kLiterature, 7);
  for (Sfa& s : ChainSfas()) sfas.push_back(std::move(s));
  auto run = [&](size_t threads) {
    return ParallelMap<std::string>(
        sfas.size(), /*grain=*/1,
        [&](size_t i) -> Result<std::string> {
          StaccatoParams params;
          params.m = 5;
          params.k = 25;
          STACCATO_ASSIGN_OR_RETURN(Sfa approx,
                                    ApproximateSfa(sfas[i], params));
          std::string bytes = approx.Serialize();
          AppendScored(KBestStrings(sfas[i], 25), &bytes);
          return bytes;
        },
        ParallelOptions{threads});
  };
  auto serial = run(1);
  ASSERT_TRUE(serial.ok());
  for (int round = 0; round < 3; ++round) {
    auto parallel = run(4);
    ASSERT_TRUE(parallel.ok());
    EXPECT_EQ(*parallel, *serial);
  }
}

}  // namespace
}  // namespace staccato
