// Source-rule fixture: every declaration below must trip the
// unit-safety rule.  tests/source_rules/test_source_rules.cc counts
// the findings, so keep additions in sync with
// LintUnitSafety.ViolatingFixture.
#pragma once

struct BadPdnConfig
{
    double supplyVolts = 1.6;
    float loadAmps = 0.0F;
};

double railOhms();
void setSwitchFreqHz(double freqHz);
