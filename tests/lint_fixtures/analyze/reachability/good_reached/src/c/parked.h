#pragma once
// Fixture: unreached, but waived with a reason.
// analyze-ok: reachability its first caller lands with the next change
namespace fx {
int parked();
}
