#include "a/knobs.h"

int main() {
  fx::WidgetConfig c;
  c.unset = 4;
  return c.unset;
}
