// Fixture: R2 on `constinit` state. `constinit` only fixes how a
// variable is initialised; the variable stays mutable, so R2 reports
// it like any other shared state.
namespace rbv::sim {

struct ThreadState;

constinit thread_local ThreadState *tlSlot = nullptr;

int
helperStep()
{
    static constinit int calls = 0; // mutable static local
    tlSlot = nullptr;
    return ++calls;
}

} // namespace rbv::sim
