#include "a/knobs.h"

int main() {
  fx::OuterConfig cfg;
  cfg.inner.beta = 2.0;  // reaches `inner` and `beta`
  const fx::OuterConfig other{.inner = {.beta = 1.0, .depth = 4}, .lanes = 2};
  const fx::ProbeTunables probe{.every = 10};
  fx::RunOptions run;
  fx::RunOptions* p = &run;
  p->seed = 2;
  return cfg.lanes + other.lanes + probe.every + p->solve(1) == 0 ? 1 : 0;
}
