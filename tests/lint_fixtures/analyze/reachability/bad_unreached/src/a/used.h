#pragma once
namespace fx {
int used();
}
