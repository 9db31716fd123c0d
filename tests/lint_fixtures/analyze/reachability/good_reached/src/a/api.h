#pragma once
namespace fx {
int api();
}
