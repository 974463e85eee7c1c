// Source-rule fixture: stdio-clean patterns — ostream parameters,
// members that merely share a stream's name, and a waived write.
#include <iostream>
#include <ostream>

void
printProgress(std::ostream &os, int step)
{
    os << "step " << step << "\n";
}

struct Channels
{
    int cout = 0; // a member named cout is not the stream
};

int
readMember(const Channels &c)
{
    return c.cout;
}

void
emergencyBanner()
{
    // iostream-ok(fixture: pre-logging startup banner)
    std::cerr << "banner\n";
}
