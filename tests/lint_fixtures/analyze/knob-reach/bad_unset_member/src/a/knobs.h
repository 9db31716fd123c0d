#pragma once
// Fixture: `unset` is assigned only by a test, which no shipped binary
// reaches, and the trailing waiver on `parked` covers only its own line.
namespace fx {
struct WidgetConfig {
  int used{1};
  int parked{0};  // analyze-ok: knob-reach fixture: a waived member
  int unset{2};
};
}  // namespace fx
