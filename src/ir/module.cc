#include "ir/module.hh"

namespace bsyn::ir
{

int
Module::addGlobal(Global g)
{
    globals.push_back(std::move(g));
    return static_cast<int>(globals.size()) - 1;
}

int
Module::findFunction(const std::string &func_name) const
{
    for (size_t i = 0; i < functions.size(); ++i)
        if (functions[i].name == func_name)
            return static_cast<int>(i);
    return -1;
}

size_t
Module::instructionCount() const
{
    size_t n = 0;
    for (const auto &f : functions)
        n += f.instructionCount();
    return n;
}

} // namespace bsyn::ir
