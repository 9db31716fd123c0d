#pragma once
// Fixture: both structs have members `x` and `y`. The shipped code sets
// them only on BetaConfig, once through a designated initializer that
// spells the type and once through a local declared as BetaConfig, and
// sets `x` on a local of a plain struct that is not a knob. So
// AlphaConfig::x and AlphaConfig::y stay unset and must be reported.
namespace fx {
struct AlphaConfig {
  int x{1};
  int y{2};
};
struct BetaConfig {
  int x{3};
  int y{4};
};
struct Offset {
  int x{0};
};
}  // namespace fx
