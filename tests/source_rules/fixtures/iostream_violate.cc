// Source-rule fixture: direct stdio in library code — qualified and
// unqualified stream writes that bypass common/logging.
#include <iostream>

void
printProgress(int step)
{
    std::cout << "step " << step << "\n";
}

void
printError(const char *what)
{
    std::cerr << "error: " << what << "\n";
}

using std::clog;

void
printNote()
{
    clog << "note\n";
}
