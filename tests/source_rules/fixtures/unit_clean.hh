// Source-rule fixture: must produce zero unit-safety findings.
// Quantity-typed members, suffix-free names, and a waived raw double
// cover the three ways a declaration stays clean.
#pragma once

#include "common/quantity.hh"

struct GoodPdnConfig
{
    vsgpu::Volts supply{1.6};
    double ratio = 0.5;
    double busVolts = 1.6; // raw-ok(fixture: CSV boundary)
};
