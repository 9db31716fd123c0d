#pragma once
// Fixture: a waiver without a reason waives nothing — the analyzer must
// still report this unreached header.
// analyze-ok: reachability
namespace fx {
int parked();
}
