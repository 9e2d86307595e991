module top_module (input a, output y);
    assign y = a;
/* never closed
endmodule
