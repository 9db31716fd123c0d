// Fixture: a same-directory include, resolved next to the including file.
#include "local.h"

int main() { return fx::b(); }
