#pragma once
// Fixture: waivers without a reason waive nothing; the analyzer must still
// report both members.
namespace fx {
// analyze-ok: knob-reach
struct GadgetOptions {
  int depth{1};  // analyze-ok: knob-reach
  int width{2};
};
}  // namespace fx
