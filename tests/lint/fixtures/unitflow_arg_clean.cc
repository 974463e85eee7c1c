// vsgpu_lint fixture: argument tags that match the callee's
// expectation (amps into an amps parameter, untagged scale factor
// into an untagged parameter) pass unit-flow.
struct Amps
{
    double raw() const;
};

// vsgpu-lint: raw-ok(fixture: suffix carries the expectation tag)
double scaleCurrent(double loadAmps, double factor)
{
    return loadAmps * factor;
}

double
route(Amps load)
{
    double a = load.raw(); // vsgpu-lint: raw-escape-ok(fixture)
    return scaleCurrent(a, 2.0);
}

// Same-named functions of different arity (say, two classes'
// record() methods): the call checks against the overload of its
// own arity, not the first-indexed one.
struct Hertz
{
    double raw() const;
};

// vsgpu-lint: raw-ok(fixture: suffix carries the expectation tag)
void record(const char *tag, double timeSec, int cycle) {}
void record(int channel, double value) {}

void
sample(Hertz clock)
{
    double f = clock.raw(); // vsgpu-lint: raw-escape-ok(fixture)
    record(0, f);
}
