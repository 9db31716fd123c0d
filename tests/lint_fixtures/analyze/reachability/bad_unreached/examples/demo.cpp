// Fixture: the one shipped entry point reaches a/, never b/.
#include "a/used.h"

int main() { return fx::used(); }
