#include "a/knobs.h"

int main() { return fx::GadgetOptions{}.depth; }
