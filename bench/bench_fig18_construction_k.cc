// Figure 18: sensitivity of Staccato construction time to k, for a fixed
// SFA and m. A floor set by the merge search, then roughly linear in k
// (not guaranteed: the chunk structure can differ across k, as the paper
// notes).
#include <cstdio>

#include "eval/workbench.h"
#include "ocr/generator.h"
#include "staccato/chunking.h"
#include "util/random.h"
#include "util/timer.h"

using namespace staccato;

int main() {
  OcrNoiseModel noise;
  noise.alternatives = 10;
  Rng rng(23);
  auto sfa = OcrLineToSfa(
      "the committee report was approved by the general session vote", noise,
      &rng);
  if (!sfa.ok()) {
    fprintf(stderr, "%s\n", sfa.status().ToString().c_str());
    return 1;
  }

  eval::PrintHeader("Figure 18: construction time vs k (fixed SFA)");
  printf("%8s | %14s %14s\n", "k", "m=1 (ms)", "m=40 (ms)");
  for (size_t k : {1u, 10u, 25u, 50u, 75u, 100u}) {
    double t1 = 0, t40 = 0;
    for (size_t m : {1u, 40u}) {
      Timer t;
      auto approx = ApproximateSfa(*sfa, {m, k, true});
      if (!approx.ok()) return 1;
      (m == 1 ? t1 : t40) = t.ElapsedSeconds() * 1e3;
    }
    printf("%8zu | %14.2f %14.2f\n", k, t1, t40);
  }
  printf("\nThe greedy merge search (FindMinSFA and scoring each candidate\n"
         "chunk) sets a floor, visible at k=1; above it time grows roughly\n"
         "linearly with k as the per-chunk k-best lists lengthen. m=1\n"
         "collapses all the way and is the most expensive.\n");
  return 0;
}
