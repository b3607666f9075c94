"""Transaction workload generation (paper §3 and Figure 3).

The user specifies "an arbitrary number of different transaction types and
their probability distribution function": per type a probability of
occurrence, a duration, a number of data log records and a record size.
Transactions are initiated at regular intervals; each writes its BEGIN
record immediately, its data records at equally spaced intervals with the
last ε before completion, and its COMMIT record at the end of its lifetime,
then waits for the log manager's group-commit acknowledgement.
"""
