// Fixture: a root-relative include of a bench helper.
#include "bench/helper.h"

int main() { return fx::api(); }
