#include "common/file.h"

#include <cstdio>

namespace so {

bool
writeFile(const std::string &path,
          std::initializer_list<std::string_view> parts)
{
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (!out)
        return false;
    bool ok = true;
    for (std::string_view part : parts)
        ok = ok && std::fwrite(part.data(), 1, part.size(), out) ==
                       part.size();
    return std::fclose(out) == 0 && ok;
}

} // namespace so
