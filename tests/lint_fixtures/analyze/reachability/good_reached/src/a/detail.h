#pragma once
namespace fx {
inline int detail() { return 0; }
}
