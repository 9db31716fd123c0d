#include "a/knobs.h"

int main() {
  const fx::AlphaConfig alpha;
  fx::BetaConfig beta = fx::BetaConfig{.x = 1};
  beta.y = 2;
  fx::Offset offset;
  offset.x = 5;
  return alpha.x + alpha.y + beta.x + beta.y + offset.x == 0 ? 1 : 0;
}
