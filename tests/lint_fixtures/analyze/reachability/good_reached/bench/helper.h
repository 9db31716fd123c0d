#pragma once
#include "a/api.h"
