#pragma once
// Fixture: every member is set by a nested path, a designated initializer
// or a pointer path in the bench, or carries a waiver with a reason.
namespace fx {
struct InnerConfig {
  double beta{1.0};
  int depth{2};
};
struct OuterConfig {
  InnerConfig inner;
  int lanes{1};
};
struct ProbeTunables {
  int every{100};
};
// analyze-ok: knob-reach fixture: a struct-level waiver covers every member
struct ParkedOptions {
  int a{0};
  int b{0};
};
struct RunOptions {
  int seed{1};
  // analyze-ok: knob-reach fixture: a comment-line waiver above a member
  int spare{0};
  int solve(int x) const { return x + seed; }  // a method, not a knob
  static constexpr int kMax = 3;               // not a knob either
  using Alias = int;
  void validate() const;
};
}  // namespace fx
