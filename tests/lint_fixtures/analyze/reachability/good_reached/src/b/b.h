#pragma once
namespace fx {
inline int b() { return 0; }
}
