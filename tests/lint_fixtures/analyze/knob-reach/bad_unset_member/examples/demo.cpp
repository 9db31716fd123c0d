#include "a/knobs.h"

int main() {
  fx::WidgetConfig c;
  c.used = 3;
  return c.used == c.unset ? 1 : 0;
}
