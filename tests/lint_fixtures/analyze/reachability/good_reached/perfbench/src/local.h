#pragma once
#include "b/b.h"
