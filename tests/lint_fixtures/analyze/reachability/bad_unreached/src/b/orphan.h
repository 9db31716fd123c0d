#pragma once
// Fixture: only its own .cpp includes this header — no shipped binary
// reaches it, so the analyzer must report reachability here.
namespace fx {
int orphan();
}
